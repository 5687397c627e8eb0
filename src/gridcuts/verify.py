"""The acceptance suite: every headline result, re-derived and checked.

Each criterion is a function returning a CriterionResult with a pass flag,
details, and any failure messages.  The CLI `verify` command and the pytest
acceptance module both run exactly these functions, so "the tests pass" and
"the artifact verifies" are the same statement.

Independence is deliberate: series terms come from the automaton while the
oracle counts come from bitboard sweeps; machine acceptance is profile
algebra while the word/oracle suite re-checks every live word with the
plain flood fill from the board module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Callable, Sequence

from . import oracle, reference
from .automaton import (
    Automaton,
    acceptance,
    accepted_words,
    always_rejected_columns,
    build_canonical,
    build_general,
    column_bits,
    live_words,
    permutation_similarity_witness,
    transfer_matrix,
)
from .asymptotics import dominant_form, error_profile
from .board import (
    Board,
    complete_board,
    component_counts,
    is_canonical,
    is_graham,
    revcomp,
    satisfies_complement_rule,
    transform,
)
from .series import (
    Polynomial,
    generating_function,
    product,
    resolvent_denominator_lcm,
    series_terms,
)

__all__ = ["CRITERIA", "CriterionResult", "run", "run_criterion"]


@dataclass
class CriterionResult:
    name: str
    ok: bool
    elapsed_s: float
    time_budget_s: float
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "time_budget_s": self.time_budget_s,
            "details": self.details,
            "failures": self.failures,
        }


class _Check:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.details: dict = {}

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def equal(self, got, want, label: str) -> bool:
        return self.expect(got == want, f"{label}: got {got!r}, expected {want!r}")


def _reference_gf():
    num = product(Polynomial(c) for c in reference.REFERENCE_GF_NUMERATOR_FACTORS)
    den = product(Polynomial(c) for c in reference.REFERENCE_GF_DENOMINATOR_FACTORS)
    return num, den


def _machine_gf():
    return generating_function(build_canonical(4))


# -- criteria -----------------------------------------------------------------


def criterion_terms(check: _Check) -> None:
    """The machine-derived series reproduces all 30 known terms exactly."""
    terms = series_terms(_machine_gf(), 30)
    check.equal(tuple(terms), reference.REFERENCE_TERMS, "first 30 terms")
    check.details["terms"] = terms


def criterion_generating_function(check: _Check) -> None:
    """The machine gf equals the known one coefficient-for-coefficient."""
    gf = _machine_gf()
    num, den = _reference_gf()
    check.equal(list(gf.numerator.coeffs), list(num.coeffs), "gf numerator")
    check.equal(list(gf.denominator.coeffs), list(den.coeffs), "gf denominator")
    check.details["numerator"] = list(gf.numerator.coeffs)
    check.details["denominator"] = list(gf.denominator.coeffs)


def criterion_oracle_agreement(check: _Check) -> None:
    """Sweep counts equal canonical series terms: m = 4 for n = 1..12, and
    m = 1, 2, 3 and 5 for n = 1..10."""
    for m, widths in ((4, 12), (1, 10), (2, 10), (3, 10), (5, 10)):
        terms = series_terms(generating_function(build_canonical(m)), widths)
        counts = [r.canonical for r in oracle.count_reports(m, range(1, widths + 1))]
        check.equal(counts, terms, f"oracle canonical counts vs series terms at m={m}")
        check.details["counts" if m == 4 else f"counts_m{m}"] = counts


def criterion_machine_structure(check: _Check) -> None:
    """Shape of the canonical machine, and similarity to the reference matrix.

    The lone (0,1,1,0) state is reachable and sits on accepting paths but
    accepts nothing; 'always rejected' holds in the sense that no accepted
    word ever *ends* on that column.
    """
    machine = build_canonical(4)
    check.equal(len(machine.states), 9, "state count")

    cols = [column_bits(4, state.column) for state in machine.states]
    by_col: dict[tuple[int, ...], int] = {}
    for bits in cols:
        by_col[bits] = by_col.get(bits, 0) + 1
    check.equal(by_col.get((1, 0, 1, 0)), 2, "states sharing column (1,0,1,0)")
    check.expect(
        all(count == 1 for bits, count in by_col.items() if bits != (1, 0, 1, 0)),
        "every other column has exactly one state",
    )

    starts = sorted(cols[i] for i in machine.start)
    check.equal(
        starts, sorted([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)]), "start columns"
    )

    rejected = always_rejected_columns(machine)
    check.equal(
        [column_bits(4, col) for col in rejected], [(0, 1, 1, 0)],
        "columns on which no word may end",
    )
    accepting = set(machine.accept_even) | set(machine.accept_odd)
    lonely = [i for i, bits in enumerate(cols) if bits == (0, 1, 1, 0)]
    check.equal(len(lonely), 1, "reachable (0,1,1,0) states")
    check.expect(
        all(i not in accepting for i in lonely), "(0,1,1,0) accepts nothing"
    )

    entries = transfer_matrix(machine).entries
    witness = permutation_similarity_witness(entries, reference.REFERENCE_TRANSFER_MATRIX)
    if check.expect(witness is not None, "no permutation conjugates our matrix to the reference one"):
        # P^T R P = T for a permutation matrix P, so det(xI - T) = det(xI - R)
        check.expect(sorted(witness) == list(range(len(entries))), "similarity witness is not a permutation")
        check.expect(
            all(
                reference.REFERENCE_TRANSFER_MATRIX[witness[i]][witness[j]] == entries[i][j]
                for i in range(len(entries))
                for j in range(len(entries))
            ),
            "similarity witness does not actually conjugate the matrices",
        )
    check.details["permutation_witness"] = witness
    check.details["always_rejected_column"] = {
        "column": [0, 1, 1, 0],
        "states": len(lonely),
        "ever_accepting": any(i in accepting for i in lonely),
    }


def criterion_resolvent_lcm(check: _Check) -> None:
    """LCM of the (I - xT)^(-1) entry denominators matches the known factors."""
    T = transfer_matrix(build_canonical(4))
    lcm = resolvent_denominator_lcm(T)
    expected = product(Polynomial(c) for c in reference.RESOLVENT_LCM_FACTORS).primitive()
    check.equal(list(lcm.coeffs), list(expected.coeffs), "resolvent denominator lcm")
    check.details["lcm"] = str(lcm)


def criterion_asymptotics(check: _Check) -> None:
    """Growth and amplitudes within tolerance; two-term error small by n=30."""
    gf = _machine_gf()
    est = dominant_form(gf, amplitude_reference=reference.reference_amplitudes)
    check.expect(
        abs(est.growth - reference.REFERENCE_GROWTH) <= 1e-8,
        f"growth {est.growth} differs from {reference.REFERENCE_GROWTH} by more than 1e-8",
    )
    check.expect(
        abs(est.amplitude - reference.REFERENCE_A) <= 1e-4,
        f"amplitude {est.amplitude} differs from {reference.REFERENCE_A} by more than 1e-4",
    )
    check.expect(
        abs(est.alternation - reference.REFERENCE_B) <= 1e-4,
        f"alternation {est.alternation} differs from {reference.REFERENCE_B} by more than 1e-4",
    )
    check.expect(
        bool(est.exact_check),
        "amplitudes do not match (89z^2 -+ 92z + 218 -+ 86/z)/234 within 1e-6",
    )
    errors = error_profile(gf, est, 30)
    check.expect(
        errors[-1][1] <= 0.02,
        f"relative error at n=30 is {errors[-1][1]:.4f} > 2%",
    )
    check.details.update(est.to_json_dict(errors=[errors[-1]]))


def criterion_cross_convention(check: _Check) -> None:
    """Small-shape counts under all three conventions, by exhaustive sweep."""
    expected = {
        ("cuts", 1): 1, ("cuts", 2): 4, ("cuts", 3): 9,
        ("orbits", 2): 3, ("orbits", 3): 5,
        ("canonical", 2): 3, ("canonical", 3): 5,
    }
    reports = oracle.count_reports(4, (1, 2, 3))
    for (field_name, n), want in expected.items():
        check.equal(getattr(reports[n - 1], field_name), want, f"{field_name}(4,{n})")
    check.details["reports"] = [report.to_json_dict(timings=False) for report in reports]


def criterion_general_mode(check: _Check) -> None:
    """General machines agree with oracle cut counts for n <= 10, and with
    each other under transposition for m, n <= 5."""
    for m in (3, 4):
        gf = generating_function(build_general(m))
        terms = series_terms(gf, 10)
        cuts = [r.cuts for r in oracle.count_reports(m, range(1, 11))]
        check.equal(terms, cuts, f"general m={m} gf coefficients vs oracle cuts")
        check.details[f"m{m}"] = terms
    # term n of the m-row gf counts the m x n cuts, and so the n x m ones too
    terms = {m: series_terms(generating_function(build_general(m)), 5) for m in range(1, 6)}
    for m in range(1, 6):
        for n in range(m + 1, 6):
            check.equal(terms[m][n - 1], terms[n][m - 1], f"general m={m} term {n} vs m={n} term {m}")
    # row m - 1 holds terms 1..m of the m-row gf
    check.details["transpose_terms"] = [row[:m] for m, row in terms.items()]


def _left_halves(board_ints: Sequence[int], m: int, n: int) -> set[tuple[int, ...]]:
    k = (n + 1) // 2
    mask = (1 << m) - 1
    return {
        tuple((b >> (j * m)) & mask for j in range(k)) for b in board_ints
    }


def _word_oracle_equivalence(check: _Check, machine: Automaton, canonical: bool) -> None:
    label = machine.mode
    for k in range(1, 7):
        for parity, n in (("even", 2 * k), ("odd", 2 * k - 1)):
            words = set(accepted_words(machine, k, parity))
            result = oracle.sweep(machine.m, n)
            boards = result.canonical if canonical else result.graham
            check.expect(
                words == _left_halves(boards, machine.m, n),
                f"{label} words of length {k} ({parity}) disagree with the sweep at width {n}",
            )


def _board_valid(m: int, word: Sequence[int], n: int, canonical: bool) -> bool:
    board = complete_board(m, n, word)
    return is_canonical(board) if canonical else is_graham(board)


def _acceptance_is_state_function(check: _Check, machine: Automaton, canonical: bool) -> None:
    """Words reaching one state accept alike, and as their boards dictate.

    Every live word's acceptance by the machine's stored accept sets must be
    its end state's acceptance under the profile algebra, computed once per
    state.  The first word reaching each state is also completed to boards
    and re-checked with the flood fill from the board module, a different
    code path from both the sweep and the profile algebra.
    """
    m = machine.m
    stored_even, stored_odd = set(machine.accept_even), set(machine.accept_odd)
    accepts: dict[int, tuple[bool, bool]] = {}
    for word, idx in live_words(machine, 6):
        first = idx not in accepts
        if first:
            accepts[idx] = acceptance(machine.states[idx])
        even, odd = accepts[idx]
        check.expect(
            (even, odd) == (idx in stored_even, idx in stored_odd),
            f"{machine.mode} state {idx}: stored acceptance differs from the profile algebra",
        )
        if not first:
            continue
        text = ["".join(map(str, column_bits(m, col))) for col in word]
        board_even = _board_valid(m, word, 2 * len(word), canonical)
        check.expect(
            board_even == even,
            f"{machine.mode} word {text}: even acceptance {even} "
            f"but board validity {board_even}",
        )
        if word[-1] == revcomp(m, word[-1]):
            board_odd = _board_valid(m, word, 2 * len(word) - 1, canonical)
            check.expect(
                board_odd == odd,
                f"{machine.mode} word {text}: odd acceptance {odd} "
                f"but board validity {board_odd}",
            )
        else:
            check.expect(not odd, f"{machine.mode} state {idx} odd-accepts a non-middle column")


def _union_find_component_counts(board: Board) -> tuple[int, int]:
    """Independent connectivity count used to cross-check the flood fill."""
    cells = board.cells
    m, n = board.m, board.n
    parent = list(range(m * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(n):
            if j + 1 < n and cells[i][j] == cells[i][j + 1]:
                parent[find(i * n + j)] = find(i * n + j + 1)
            if i + 1 < m and cells[i][j] == cells[i + 1][j]:
                parent[find(i * n + j)] = find((i + 1) * n + j)
    roots = {find(i * n + j): cells[i][j] for i in range(m) for j in range(n)}
    zeros = sum(1 for label in roots.values() if label == 0)
    return zeros, len(roots) - zeros


def _rule_boards(m: int, n: int):
    """Every complement-rule board of the shape, by direct construction."""
    if n % 2 == 0:
        for left in iproduct(range(1 << m), repeat=n // 2):
            yield complete_board(m, n, left)
        return
    # a one-column board obeys the rule iff its column is its own reversed complement
    middles = [v for v in range(1 << m) if satisfies_complement_rule(Board(m, 1, v))]
    for prefix in iproduct(range(1 << m), repeat=n // 2):
        for mid in middles:
            yield complete_board(m, n, prefix + (mid,))


def criterion_property_suites(check: _Check) -> None:
    """Exhaustive word/oracle equivalence, state-function acceptance, and
    board-algebra identities; random boards are drawn from a fixed seed."""
    _word_oracle_equivalence(check, build_canonical(4), canonical=True)
    _word_oracle_equivalence(check, build_general(4), canonical=False)
    _acceptance_is_state_function(check, build_canonical(4), canonical=True)
    _acceptance_is_state_function(check, build_general(4), canonical=False)

    # complement-rule boards, exhaustively up to m*n <= 24 and 12 sweep bits
    shapes = [
        (m, n)
        for m in range(1, 7)
        for n in range(1, 25)
        if m * n <= 24 and m * ((n + 1) // 2) <= 12
    ]
    checked = 0
    for m, n in shapes:
        for board in _rule_boards(m, n):
            checked += 1
            if not satisfies_complement_rule(board):
                check.expect(False, f"completion of a left half broke the rule: {board.cells}")
            if transform(board, "rot180") != transform(board, "complement"):
                check.expect(False, f"rot180 != complement on a rule board: {board.cells}")
            if board.left_half() != board.columns()[: (n + 1) // 2]:
                check.expect(False, "left_half disagrees with columns")
            if complete_board(m, n, board.left_half()) != board:
                check.expect(False, f"left-half round trip failed: {board.cells}")
            if m * n <= 16:
                if component_counts(board) != _union_find_component_counts(board):
                    check.expect(False, f"flood fill vs union-find mismatch: {board.cells}")
    check.details["rule_boards_checked"] = checked

    # transform algebra on every valid 4 x n board, n <= 6
    graham_checked = 0
    for n in range(1, 7):
        result = oracle.sweep(4, n)
        for value in result.graham:
            board = Board(4, n, value)
            graham_checked += 1
            for op in ("hflip", "vflip", "rot180", "complement"):
                image = transform(board, op)
                if not is_graham(image):
                    check.expect(False, f"{op} broke validity: {board.cells}")
                if transform(image, op) != board:
                    check.expect(False, f"{op} is not an involution: {board.cells}")
            if transform(board, "vflip") != transform(transform(board, "hflip"), "rot180"):
                check.expect(False, f"vflip != rot180 o hflip: {board.cells}")
    check.details["graham_boards_checked"] = graham_checked

    # seeded random boards: flood fill vs union-find, involutions
    rng = random.Random(171717)
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 8)
        board = Board.from_rows([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
        if component_counts(board) != _union_find_component_counts(board):
            check.expect(False, f"flood fill vs union-find mismatch: {board.cells}")
        for op in ("hflip", "vflip", "rot180", "complement"):
            if transform(transform(board, op), op) != board:
                check.expect(False, f"{op} not an involution on {board.cells}")

    # column involution, exhaustively for m <= 8
    for m in range(1, 9):
        for col in range(1 << m):
            if revcomp(m, revcomp(m, col)) != col:
                check.expect(False, f"revcomp not an involution on {column_bits(m, col)}")


def criterion_figures(check: _Check) -> None:
    """Both reference galleries verify, and the 4x6 enumeration has 54 boards."""
    boards = oracle.enumerate_canonical(4, 6)
    check.equal(len(boards), 54, "canonical 4x6 count")
    check.expect(len(set(boards)) == len(boards), "enumeration has duplicates")
    oracle.regenerate_figures()  # raises FigureMismatch on an offending gallery board
    check.details["canonical_4x6"] = len(boards)


CRITERIA: list[tuple[str, Callable[[_Check], None], float]] = [
    ("terms-30", criterion_terms, 1.0),
    ("generating-function", criterion_generating_function, 5.0),
    ("oracle-agreement", criterion_oracle_agreement, 300.0),
    ("machine-structure", criterion_machine_structure, 10.0),
    ("resolvent-lcm", criterion_resolvent_lcm, 10.0),
    ("asymptotics", criterion_asymptotics, 5.0),
    ("cross-convention", criterion_cross_convention, 1.0),
    ("general-mode", criterion_general_mode, 60.0),
    ("property-suites", criterion_property_suites, 5.0),
    ("figures", criterion_figures, 1.0),
]


def run_criterion(name: str) -> CriterionResult:
    for crit_name, fn, budget in CRITERIA:
        if crit_name == name:
            check = _Check()
            started = time.perf_counter()
            try:
                fn(check)
            except Exception as exc:  # a crash is a failure, not an abort
                check.failures.append(f"exception: {exc!r}")
            elapsed = time.perf_counter() - started
            ok = not check.failures
            if elapsed > budget:
                ok = False
                check.failures.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")
            return CriterionResult(name, ok, elapsed, budget, check.details, check.failures)
    raise ValueError(f"unknown criterion {name!r}; known: {[c[0] for c in CRITERIA]}")


def run(names: Sequence[str] | None = None) -> list[CriterionResult]:
    wanted = [c[0] for c in CRITERIA] if names is None else list(names)
    return [run_criterion(name) for name in wanted]
