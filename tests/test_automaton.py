import hashlib
import json
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from gridcuts import automaton, oracle
from gridcuts.automaton import (
    Automaton,
    State,
    acceptance,
    accepted_words,
    always_rejected_columns,
    build_canonical,
    build_general,
    column_bits,
    live_words,
    permutation_similarity_witness,
    to_dot,
    to_json_dict,
    transfer_matrix,
    StateExplosionError,
)
from gridcuts.board import _reverse, complete_board, is_canonical, is_graham, revcomp
from gridcuts.reference import REFERENCE_TRANSFER_MATRIX
from gridcuts.series import generating_function


def col(*bits):
    """A column as an m-bit integer, top row first."""
    return sum(b << i for i, b in enumerate(bits))


def start_state(m, column):
    """The state after reading `column` first: its blocks are its runs."""
    return State(column, tuple(automaton._runs(m, column)))


def step_state(state, column):
    """`state` after reading `column`, or None when the word is rejected."""
    runs = automaton._runs(state.m, column)
    blocks = automaton._step(state.blocks, state.column, column, runs)
    return None if blocks is None else State(column, tuple(sorted(blocks)))


def count_boards(machine, n):
    """Width-n boards the machine accepts, over its divisor, by a walk over
    its transitions; parallel edges count once each."""
    if n <= 0:
        return 0
    vec = [0] * len(machine.states)
    for idx in machine.start:
        vec[idx] += 1
    for _ in range((n + 1) // 2 - 1):
        nxt = [0] * len(machine.states)
        for src, _, dst in machine.transitions:
            nxt[dst] += vec[src]
        vec = nxt
    accept = machine.accept_even if n % 2 == 0 else machine.accept_odd
    total = sum(vec[idx] for idx in accept)
    assert total % machine.divisor == 0
    return total // machine.divisor


def automaton_from_json_dict(data):
    """Rebuild a machine from its `to_json_dict` form."""
    return Automaton(
        m=data["m"],
        mode=data["mode"],
        divisor=data["divisor"],
        alphabet=tuple(col(*bits) for bits in data["alphabet"]),
        states=tuple(
            State(
                col(*s["column"]),
                tuple(sorted(sum(1 << i for i in rows)
                             for rows in s["profile"]["zero"] + s["profile"]["one"])),
            )
            for s in data["states"]
        ),
        start=tuple(data["start"]),
        transitions=tuple(tuple(edge) for edge in data["edges"]),
        accept_even=tuple(data["accept_even"]),
        accept_odd=tuple(data["accept_odd"]),
    )


@pytest.fixture(scope="module")
def canonical():
    return build_canonical(4)


class TestStep:
    def test_trivial_edge_keeps_connectivity(self):
        state = step_state(start_state(4, col(1, 1, 0, 0)), col(1, 1, 0, 0))
        assert state is not None
        assert state.one_blocks == ((0, 1),)
        assert state.zero_blocks == ((2, 3),)

    def test_disconnecting_edge_rejected(self):
        # the single 1-block loses its whole frontier
        assert step_state(start_state(4, col(1, 1, 0, 0)), col(0, 0, 1, 0)) is None

    def test_new_component_spawns(self):
        state = step_state(start_state(4, col(1, 0, 0, 0)), col(1, 0, 1, 0))
        assert state is not None
        # 1s split into the old top block and a fresh one; 0s joined up
        assert state.one_blocks == ((0,), (2,))
        assert state.zero_blocks == ((1, 3),)


def prefix_components(m, word):
    """The 4-components of the board whose columns are `word`, each as a set
    of (row, column) cells; a flood fill independent of the machine."""
    label = {(i, j): (c >> i) & 1 for j, c in enumerate(word) for i in range(m)}
    seen, components = set(), []
    for cell in label:
        if cell in seen:
            continue
        seen.add(cell)
        component, stack = set(), [cell]
        while stack:
            i, j = stack.pop()
            component.add((i, j))
            for nxt in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nxt in label and nxt not in seen and label[nxt] == label[cell]:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(component)
    return components


class TestAgainstFloodFill:
    """`start_state`/`step_state` (the `_step` glue on `State`s) and
    `acceptance` against a flood fill of the prefix board and `is_graham` of
    the completed board, for every short word."""

    @pytest.mark.parametrize("m,longest", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 2)])
    def test_every_short_word(self, m, longest):
        for word in (w for k in range(1, longest + 1) for w in product(range(1 << m), repeat=k)):
            state = start_state(m, word[0])
            for column in word[1:]:
                state = state and step_state(state, column)
            last = len(word) - 1
            components = prefix_components(m, word)
            if any(all(j != last for _, j in comp) for comp in components):
                assert state is None, word
                assert not is_graham(complete_board(m, 2 * len(word), word)), word
                continue
            assert state is not None, word
            blocks = [tuple(sorted(i for i, j in comp if j == last)) for comp in components]
            assert state.zero_blocks == tuple(sorted(b for b in blocks if not (word[-1] >> b[0]) & 1))
            assert state.one_blocks == tuple(sorted(b for b in blocks if (word[-1] >> b[0]) & 1))
            even, odd = acceptance(state)
            assert even == is_graham(complete_board(m, 2 * len(word), word)), word
            if revcomp(m, word[-1]) == word[-1]:
                assert odd == is_graham(complete_board(m, 2 * len(word) - 1, word)), word
            else:
                assert not odd, word


class TestAcceptance:
    def test_odd_accepting_columns(self, canonical):
        odd_cols = {canonical.states[i].column for i in canonical.accept_odd}
        assert odd_cols == {col(1, 1, 0, 0), col(1, 0, 1, 0)}

    def test_all_zero_start_even_accepts(self):
        even, odd = acceptance(start_state(4, col(0, 0, 0, 0)))
        assert even and not odd
        assert is_graham(complete_board(4, 2, [col(0, 0, 0, 0)]))

    def test_acceptance_needs_live_columns_to_line_up(self, canonical):
        lonely = [s for s in canonical.states if s.column == col(0, 1, 1, 0)]
        assert [acceptance(s) for s in lonely] == [(False, False)]


class TestCanonicalStructure:
    def test_nine_states(self, canonical):
        assert len(canonical.states) == 9

    def test_two_states_share_the_split_column(self, canonical):
        split = [s for s in canonical.states if s.column == col(1, 0, 1, 0)]
        assert len(split) == 2
        profiles = {(s.zero_blocks, s.one_blocks) for s in split}
        assert profiles == {
            (((1,), (3,)), ((0, 2),)),  # 1s connected, 0s split
            (((1, 3),), ((0,), (2,))),  # 0s connected, 1s split
        }

    def test_every_other_column_has_one_state(self, canonical):
        seen = {}
        for state in canonical.states:
            seen[state.column] = seen.get(state.column, 0) + 1
        assert all(v == 1 for column, v in seen.items() if column != col(1, 0, 1, 0))

    def test_start_columns(self, canonical):
        starts = {column_bits(4, canonical.states[i].column) for i in canonical.start}
        assert starts == {(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)}

    @pytest.mark.parametrize("m,states", [(1, 1), (2, 2), (3, 4), (4, 9), (5, 21), (6, 51)])
    def test_states_for_every_m(self, m, states):
        # oracle agreement: verify's oracle-agreement for m = 1..5, CI for m = 6
        assert len(closure_machine("canonical", m).states) == states

    def test_alphabet_is_bottom_zero_columns(self, canonical):
        assert len(canonical.alphabet) == 8
        assert all(column_bits(4, c)[3] == 0 for c in canonical.alphabet)

    def test_transfer_matrix_similar_to_reference(self, canonical):
        T = transfer_matrix(canonical)
        witness = permutation_similarity_witness(T.entries, REFERENCE_TRANSFER_MATRIX)
        assert witness is not None
        size = len(witness)
        assert sorted(witness) == list(range(size))
        for i in range(size):
            for j in range(size):
                assert REFERENCE_TRANSFER_MATRIX[witness[i]][witness[j]] == T.entries[i][j]

    def test_counts_match_reference_terms(self, canonical):
        from gridcuts.reference import REFERENCE_TERMS

        assert [count_boards(canonical, n) for n in range(1, 13)] == list(REFERENCE_TERMS[:12])

    def test_count_zero_width(self, canonical):
        assert count_boards(canonical, 0) == 0


class TestLonelyColumn:
    """One column may appear inside accepted words but never end one.

    Witness: the word 0000,0110,0100 is live, ends even-accepting after one
    more column, and its width-6 completion (below) is a stipulation-valid
    cut that contains the column (0,1,1,0) in its left half.  So the column's
    state survives trimming; 'always rejected' is about words stopping there.
    """

    WITNESS = (col(0, 0, 0, 0), col(0, 1, 1, 0), col(0, 1, 0, 0))

    def test_witness_board_is_canonical(self):
        board = complete_board(4, 6, self.WITNESS)
        assert is_canonical(board)
        assert board.cells == (
            (0, 0, 0, 1, 1, 1),
            (0, 1, 1, 1, 0, 1),
            (0, 1, 0, 0, 0, 1),
            (0, 0, 0, 1, 1, 1),
        )

    def test_machine_accepts_the_witness(self, canonical):
        assert self.WITNESS in accepted_words(canonical, 3, "even")

    def test_witness_in_enumeration(self):
        board = complete_board(4, 6, self.WITNESS)
        assert board in oracle.enumerate_canonical(4, 6)

    def test_lonely_column_state_accepts_nothing(self, canonical):
        report = always_rejected_columns(canonical)
        assert [column_bits(4, c) for c in report] == [(0, 1, 1, 0)]

    def test_no_word_ends_on_the_lonely_column(self, canonical):
        for k in (1, 2, 3):
            for parity in ("even", "odd"):
                for word in accepted_words(canonical, k, parity):
                    assert word[-1] != col(0, 1, 1, 0)


class TestGeneralMachines:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_build(self, m):
        machine = build_general(m)
        assert machine.divisor == 2
        assert len(machine.alphabet) == 1 << m

    def test_m1_counts(self):
        machine = build_general(1)
        assert [count_boards(machine, n) for n in range(1, 9)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_m3_width_two(self):
        assert count_boards(build_general(3), 2) == 3

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_counts_match_oracle_cuts(self, m):
        machine = build_general(m)
        for n in range(1, 9):
            assert count_boards(machine, n) == oracle.count_report(m, n).cuts

    def test_five_row_counts(self):
        machine = build_general(5)
        assert [count_boards(machine, n) for n in range(1, 9)] == [
            0, 5, 0, 39, 0, 263, 0, 1675,
        ]

    @pytest.mark.parametrize("m,states,edges,digest", [
        (5, 42, 348, "6dc30b93de74d1526862b78610429c2f317f3ebe24796a546a415ade12e917a2"),
        (6, 102, 1378, "ee7af4e9140462cf6ee2d257ada4b51dd4af1b5b944f985b51f16d25f8181c96"),
    ])
    def test_state_numbering_is_pinned(self, m, states, edges, digest):
        # SHA-256 of the sorted-key JSON form: every state's number, blocks and
        # accept flags and every edge; m = 6 is past build_general's cap
        alphabet = tuple(range(1 << m))
        machine = automaton._build(m, "general", alphabet, alphabet, 2)
        assert (len(machine.states), len(machine.transitions)) == (states, edges)
        text = json.dumps(to_json_dict(machine), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_row_count_range(self):
        for build in (build_general, build_canonical):
            for m in (0, 6):
                with pytest.raises(ValueError, match="supported for m in 1..5"):
                    build(m)

    def test_state_cap(self, monkeypatch):
        build_general.cache_clear()  # a cached machine would never meet the cap
        monkeypatch.setattr(automaton, "STATE_CAP", 5)
        with pytest.raises(StateExplosionError, match="more than 5 states for m=4 mode=general"):
            build_general(4)


CLOSURE_MACHINES = [("canonical", m) for m in range(1, 7)] + [("general", m) for m in range(1, 7)]


def first_columns(mode, m):
    """The start columns before trimming: for canonical, the bottom-zero
    columns (stipulation 1) with at least as many zeros as ones
    (stipulation 2); for general, every column."""
    if mode == "canonical":
        return tuple(c for c in range(1 << (m - 1)) if 2 * c.bit_count() <= m)
    return tuple(range(1 << m))


def closure_machine(mode, m):
    """A freshly closed machine; m = 6 is past the builders' cap."""
    if mode == "canonical":
        return automaton._build(m, mode, tuple(range(1 << (m - 1))), first_columns(mode, m), 1)
    alphabet = tuple(range(1 << m))
    return automaton._build(m, mode, alphabet, alphabet, 2)


class TestClosureMatchesStepState:
    """The closure's edges and start states against `start_state` and
    `step_state`, one state and one `_step` at a time."""

    @pytest.mark.parametrize("mode,m", CLOSURE_MACHINES)
    def test_edges_are_single_steps(self, mode, m):
        machine = closure_machine(mode, m)
        kept = set(machine.states)
        edges = machine._edge_map
        for src, state in enumerate(machine.states):
            for sym in machine.alphabet:
                stepped = step_state(state, sym)
                if (src, sym) in edges:
                    assert stepped == machine.states[edges[src, sym]]
                else:  # rejected on the spot, or led to a trimmed state
                    assert stepped is None or stepped not in kept

    @pytest.mark.parametrize("mode,m", CLOSURE_MACHINES)
    def test_start_states_are_kept_first_columns(self, mode, m):
        machine = closure_machine(mode, m)
        firsts = {start_state(m, c) for c in first_columns(mode, m)}
        assert {machine.states[i] for i in machine.start} == firsts & set(machine.states)

    def test_canonical_closure_is_the_built_machine(self):
        for m in range(1, 6):
            assert closure_machine("canonical", m) == build_canonical(m)


def label_swap(m, state):
    """σ: every label flipped; each block keeps its rows."""
    return State(state.column ^ ((1 << m) - 1), state.blocks)


def row_flip(m, state):
    """ρ: the rows of the column and of every block turned upside down."""
    return State(_reverse(state.column, m), tuple(sorted(_reverse(b, m) for b in state.blocks)))


def symmetry_orbits(machine):
    """The number of orbits of the kept states under σ and ρ, once both are
    checked to map kept states, edges, and the start and accept sets onto
    themselves."""
    # an edge's symbol is the column of the state it enters, so it moves with it
    assert all(machine.states[dst].column == sym for _, sym, dst in machine.transitions)
    number = {state: i for i, state in enumerate(machine.states)}
    images = []
    for image in (label_swap, row_flip):
        perm = [number.get(image(machine.m, state)) for state in machine.states]
        assert None not in perm, f"{image.__name__} leaves the kept states"
        moved = {(perm[src], machine.states[perm[dst]].column, perm[dst])
                 for src, _, dst in machine.transitions}
        assert moved == set(machine.transitions), f"{image.__name__} moves an edge off the machine"
        for name in ("start", "accept_even", "accept_odd"):
            indices = getattr(machine, name)
            assert {perm[i] for i in indices} == set(indices), f"{image.__name__} moves {name}"
        images.append(perm)
    swap, flip = images
    return len({frozenset((i, swap[i], flip[i], swap[flip[i]])) for i in range(len(swap))})


class TestSymmetries:
    """Label swap σ and row flip ρ fix the general machine: the precondition
    for lumping its states by orbit."""

    @pytest.mark.parametrize("m,orbits", [(1, 1), (2, 2), (3, 3), (4, 6), (5, 13), (6, 29)])
    def test_general_machine_is_closed_under_label_swap_and_row_flip(self, m, orbits):
        assert symmetry_orbits(closure_machine("general", m)) == orbits


class TestPerProcessCaches:
    def test_second_build_is_a_hit(self):
        first = build_general(4)
        hits = build_general.cache_info().hits
        assert build_general(4) is first
        assert build_general.cache_info().hits == hits + 1

    def test_second_gf_is_a_hit(self):
        machine = build_general(4)
        first = generating_function(machine)
        hits = generating_function.cache_info().hits
        assert generating_function(machine) is first
        assert generating_function.cache_info().hits == hits + 1

    def test_rebuilt_after_clear_equals_cached(self):
        machine, gf = build_general(4), generating_function(build_general(4))
        build_general.cache_clear()
        generating_function.cache_clear()
        rebuilt = build_general(4)
        assert rebuilt is not machine and rebuilt == machine
        assert to_json_dict(rebuilt) == to_json_dict(machine)
        regf = generating_function(rebuilt)
        assert regf is not gf and regf == gf


class TestWordRuns:
    def test_run_rejects_bad_start(self, canonical):
        assert all(word[0] != col(0, 1, 1, 0) for word, _ in live_words(canonical, 3))

    def test_run_accept_matches_board(self, canonical):
        word = (col(0, 0, 0, 0), col(0, 1, 0, 0), col(0, 1, 0, 0))
        assert word in accepted_words(canonical, 3, "even")
        assert is_canonical(complete_board(4, 6, word))

    @pytest.mark.parametrize("build", [lambda: build_canonical(4), lambda: build_general(3)])
    def test_live_words_follow_the_profile_update(self, build):
        machine = build()
        lengths = []
        for word, idx in live_words(machine, 4):
            lengths.append(len(word))
            state = start_state(machine.m, word[0])
            for column in word[1:]:
                state = step_state(state, column)
            assert machine.states[idx] == state
        assert lengths == sorted(lengths) and set(lengths) == {1, 2, 3, 4}

    def test_accepted_words_sorted_deterministically(self, canonical):
        words = accepted_words(canonical, 3, "even")
        assert words == sorted(words)
        assert len(words) == count_boards(canonical, 6)


class TestInvariants:
    @pytest.mark.parametrize("build", [lambda: build_canonical(4), lambda: build_general(3)])
    def test_every_state_reachable_from_a_start(self, build):
        machine = build()
        edge_map = {}
        for src, _, dst in machine.transitions:
            edge_map.setdefault(src, set()).add(dst)
        seen = set(machine.start)
        frontier = list(machine.start)
        while frontier:
            node = frontier.pop()
            for nxt in edge_map.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(range(len(machine.states)))

    @pytest.mark.parametrize("build", [lambda: build_canonical(4), lambda: build_general(4)])
    def test_profiles_partition_the_column(self, build):
        machine = build()
        for state in machine.states:
            bits = column_bits(machine.m, state.column)
            zeros = [i for i, b in enumerate(bits) if b == 0]
            ones = [i for i, b in enumerate(bits) if b == 1]
            assert sorted(r for block in state.zero_blocks for r in block) == zeros
            assert sorted(r for block in state.one_blocks for r in block) == ones

    @pytest.mark.parametrize("mode,m", CLOSURE_MACHINES)
    def test_blocks_are_a_sorted_one_label_partition(self, mode, m):
        # what `State.m` and the row views read off the masks
        for state in closure_machine(mode, m).states:
            blocks = state.blocks
            assert list(blocks) == sorted(blocks), state
            assert all(a & b == 0 for a, b in combinations(blocks, 2)), state
            assert reduce(or_, blocks) == (1 << m) - 1, state
            assert all(b & state.column in (0, b) for b in blocks), state
            assert state.m == m

    @pytest.mark.parametrize("mode,m", CLOSURE_MACHINES)
    def test_every_state_has_a_self_loop(self, mode, m):
        # the aperiodicity that `asymptotics` takes from Perron-Frobenius
        machine = closure_machine(mode, m)
        transitions = set(machine.transitions)
        assert all((i, state.column, i) in transitions for i, state in enumerate(machine.states))

    def test_odd_accepting_states_have_self_revcomp_columns(self, canonical):
        for idx in canonical.accept_odd:
            column = canonical.states[idx].column
            assert revcomp(4, column) == column


class TestSerializationExports:
    def test_json_round_trip(self, canonical):
        data = json.loads(json.dumps(to_json_dict(canonical)))
        assert automaton_from_json_dict(data) == canonical

    def test_json_round_trip_general(self):
        machine = build_general(3)
        data = json.loads(json.dumps(to_json_dict(machine)))
        assert automaton_from_json_dict(data) == machine

    def test_dot_has_nine_nodes_and_three_boxes(self, canonical):
        dot = to_dot(canonical)
        assert dot.count("shape=box") == 3
        nodes = [line for line in dot.splitlines() if "[label=" in line and "->" not in line]
        assert len(nodes) == 9
        assert dot.count("palegreen") == 3  # accept both parities


class TestTransferMatrixInvariant:
    # one state per column of a 1-row board; both symbols lead from state 0 to state 1
    PARALLEL_EDGES = Automaton(
        m=1,
        mode="general",
        divisor=1,
        alphabet=(col(0), col(1)),
        states=(
            State(col(0), (0b1,)),
            State(col(1), (0b1,)),
        ),
        start=(0,),
        transitions=((0, 0, 1), (0, 1, 1)),
        accept_even=(1,),
        accept_odd=(),
    )

    def test_parallel_edges_counted(self):
        from gridcuts.series import generating_function, series_terms

        assert transfer_matrix(self.PARALLEL_EDGES).entries == ((0, 2), (0, 0))
        terms = series_terms(generating_function(self.PARALLEL_EDGES), 6)
        assert terms == [count_boards(self.PARALLEL_EDGES, n) for n in range(1, 7)] == [0, 0, 0, 2, 0, 0]

    def test_parallel_edges_sum_in_one_row_entry(self):
        assert transfer_matrix(self.PARALLEL_EDGES).rows == (((1, 2),), ())

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("build", [build_canonical, build_general])
    def test_rows_count_the_transitions(self, build, m):
        machine = build(m)
        counted = Counter((src, dst) for src, _, dst in machine.transitions)
        expected = tuple(
            tuple(sorted((dst, c) for (src, dst), c in counted.items() if src == i))
            for i in range(len(machine.states))
        )
        rows = transfer_matrix(machine).rows
        assert rows == expected
        assert all(w > 0 for row in rows for _, w in row)

    @pytest.mark.parametrize("m", [None, 1, 2, 3, 4], ids=lambda m: f"general{m}" if m else "canonical4")
    def test_count_boards_equals_gf_terms(self, m):
        from gridcuts.series import generating_function, series_terms

        machine = build_general(m) if m else build_canonical(4)
        terms = series_terms(generating_function(machine), 20)
        assert [count_boards(machine, n) for n in range(1, 21)] == terms
