"""Column-reading finite state machines that recognize valid cuts.

A board is read one column at a time, left half only.  A column is an m-bit
int with the top row in bit 0, exactly the column's slice of a board's bits,
so machine words feed `board.complete_board` as they are.  A state is the
column just read plus the partition of that column's cells into components
of the board prefix, per label.

One operation, `_glue`, does all the connectivity work.  It takes the blocks
of two columns side by side as m-bit row masks, in the same encoding as the
columns, and joins a left block to a right block wherever they share a row
at which the two columns agree.  Reading a next column glues the old blocks
to the new column's vertical runs; a block that touches no cell of the new
column can never grow again, and since the completed board always holds
further cells of its label, the word is rejected immediately.  Acceptance is
decided from the final state alone: the right half of the board is the
half-turn complement of the left half, so at the seam it is the mirror image
of the final blocks with labels flipped, a partition of the final column's
reversed complement.  Gluing the blocks to their mirror images gives the
board's components; the word is accepted iff exactly one of each label
remains.  For odd widths the final column is the shared middle column, which
must equal its own reversed complement.

Two modes share this machinery.  The canonical machine takes the two
stipulations of `board.is_canonical` as its alphabet (the 2^(m-1) columns
with a 0 bottom cell) and start set (those with no more ones than zeros), so
every accepted word is one canonical board.  The general machine uses all
2^m columns and every column as a start, so each cut is accepted twice, once
per labelling (divisor 2).  After construction, states that cannot reach
an accepting state are trimmed, which keeps every state on an accepting
path.  `live_words` is the one walk over a built machine: it yields every
word not yet rejected, with its state, shortest first.

A `State` is stored in the mask encoding only: the column and its sorted
block masks, a tuple that is also the key the closure interns it by.  The
column fixes each block's label, so the masks need no label split; the
row-index views `zero_blocks` and `one_blocks` are derived for the writers.
Each symbol's runs are computed once, and a successor is glued straight from
the interned masks by `_step`.  Interning order, and so the STATE_CAP check,
follow the breadth-first discovery of the states from the start columns; the
kept states are numbered in row-tuple order, (column, zero_blocks,
one_blocks), which mask order does not follow from m = 4 up.

`build_canonical` and `build_general` are cached per process, and so is
`series.generating_function`: a machine and its gf are immutable values, so
every query in a process shares one object, and `cache_info()` counts the
reuses as hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, NamedTuple, Sequence

from .board import _reverse, revcomp
from .errors import GridcutsError

__all__ = [
    "Automaton",
    "State",
    "StateExplosionError",
    "TransferMatrix",
    "acceptance",
    "accepted_words",
    "always_rejected_columns",
    "build_canonical",
    "build_general",
    "column_bits",
    "live_words",
    "permutation_similarity_witness",
    "to_dot",
    "transfer_matrix",
]

STATE_CAP = 20_000
MAX_ROWS = 5  # of both builders; `_build` itself takes any m


class StateExplosionError(GridcutsError, RuntimeError):
    """State closure exceeded the configured cap."""


def column_bits(m: int, col: int) -> tuple[int, ...]:
    """The labels of an m-bit column, top row first; for the writers."""
    return tuple((col >> i) & 1 for i in range(m))


def _rows(mask: int) -> tuple[int, ...]:
    """The row indices of a row mask, top row first."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


class State(NamedTuple):
    """The column just read, as an m-bit int, and the partition of its cells
    into live components of the board prefix, as sorted row masks.

    The blocks are pairwise disjoint, each holds cells of one label, and
    together they cover rows 0..m-1: they OR to 2^m - 1.
    """

    column: int
    blocks: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(self.blocks).bit_length()  # disjoint masks: the sum is their OR

    @property
    def zero_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks of label 0 as sorted row-index tuples."""
        return tuple(sorted(_rows(b) for b in self.blocks if not b & self.column))

    @property
    def one_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks of label 1 as sorted row-index tuples."""
        return tuple(sorted(_rows(b) for b in self.blocks if b & self.column))


def _runs(m: int, col: int) -> list[int]:
    """Maximal vertical runs of equal label, as row masks."""
    runs = []
    start = 0
    for i in range(1, m + 1):
        if i == m or ((col >> i) ^ (col >> start)) & 1:
            runs.append((1 << i) - (1 << start))
            start = i
    return runs


def _glue(left: list[int], right: list[int], rows: int) -> list[tuple[int, int]]:
    """The components of two partitions glued at `rows`, as (left, right)
    row-mask pairs.

    `left` and `right` are the blocks of two columns side by side; a left
    block and a right block join when they share a row in `rows`.  Each
    right block in turn absorbs every component whose left part it meets.
    """
    comps = [(block, 0) for block in left]
    for block in right:
        glued_left, glued_right, rest = 0, block, []
        for comp_left, comp_right in comps:
            if comp_left & block & rows:
                glued_left, glued_right = glued_left | comp_left, glued_right | comp_right
            else:
                rest.append((comp_left, comp_right))
        comps = rest + [(glued_left, glued_right)]
    return comps


def _step(blocks: Sequence[int], column: int, col: int, runs: list[int]) -> list[int] | None:
    """The blocks after reading `col` (whose runs are `runs`) next to
    `column`, or None if an old block loses its frontier.

    A block touches the new column iff it holds a row where the labels
    agree; one that does not is rejected before any gluing.
    """
    agree = ~(column ^ col)
    if not all(block & agree for block in blocks):
        return None
    return [right for _, right in _glue(blocks, runs, agree)]


def acceptance(state: State) -> tuple[bool, bool]:
    """(even, odd) acceptance, computed from the state alone.

    The mirror image of a block (rows R, label L) is (rows m-1-R, label 1-L),
    a block of the reversed complement column: the right half at the seam.
    Even: glue the blocks to their mirror images at the rows where the final
    column and its reversed complement agree, and accept iff exactly one
    component of each label remains.  A component has one label and the
    mirror flips every label, so both labels occur: that is two components.
    Odd: the final column is the middle column, shared by both halves, so it
    must be its own reversed complement; then the two columns agree at every
    row and the glue is the even one.
    """
    col, blocks = state
    m = state.m
    rc = revcomp(m, col)
    comps = _glue(blocks, [_reverse(b, m) for b in blocks], ~(col ^ rc))
    even = len(comps) == 2
    return even, even and col == rc


@dataclass(frozen=True)
class Automaton:
    """A built machine: ordered states, transitions, start and accept sets.

    Every column - alphabet symbol, state column, word letter - is an m-bit
    int with the top row in bit 0, the column's slice of a board's bits.
    `transitions` holds (from_index, symbol, to_index).  `divisor` is how
    many accepted words denote the same cut (1 canonical, 2 general).
    """

    m: int
    mode: str
    divisor: int
    alphabet: tuple[int, ...]
    states: tuple[State, ...]
    start: tuple[int, ...]
    transitions: tuple[tuple[int, int, int], ...]
    accept_even: tuple[int, ...]
    accept_odd: tuple[int, ...]

    @cached_property
    def _edge_map(self) -> dict[tuple[int, int], int]:
        return {(src, sym): dst for src, sym, dst in self.transitions}


def _build(m: int, mode: str, alphabet: tuple[int, ...],
           start_cols: tuple[int, ...], divisor: int) -> Automaton:
    index: dict[State, int] = {}
    order: list[State] = []
    edges: dict[tuple[int, int], int] = {}
    runs = {col: _runs(m, col) for col in alphabet}

    def intern(col: int, blocks: list[int]) -> int:
        state = State(col, tuple(sorted(blocks)))
        idx = index.get(state)
        if idx is None:
            if len(order) >= STATE_CAP:
                raise StateExplosionError(
                    f"more than {STATE_CAP} states for m={m} mode={mode}"
                )
            idx = len(order)
            index[state] = idx
            order.append(state)
        return idx

    start_set = {intern(col, _runs(m, col)) for col in start_cols}
    src = 0
    while src < len(order):  # every interned state is stepped once, in order
        column, blocks = order[src]
        for col in alphabet:
            stepped = _step(blocks, column, col, runs[col])
            if stepped is not None:
                edges[(src, col)] = intern(col, stepped)
        # a column's runs sit inside its blocks, so reading it again is a self-loop
        assert edges.get((src, column)) == src, order[src]
        src += 1

    accepts = [acceptance(state) for state in order]

    # trim states that cannot reach any accepting state
    reverse: dict[int, set[int]] = {i: set() for i in range(len(order))}
    for (src, _), dst in edges.items():
        reverse[dst].add(src)
    useful = {i for i, (even, odd) in enumerate(accepts) if even or odd}
    stack = list(useful)
    while stack:
        node = stack.pop()
        for prev in reverse[node]:
            if prev not in useful:
                useful.add(prev)
                stack.append(prev)

    # numbered in row-tuple order, not mask order; see the module docstring
    kept = sorted(useful, key=lambda i: (order[i].column, order[i].zero_blocks, order[i].one_blocks))
    remap = {old: new for new, old in enumerate(kept)}
    final_states = tuple(order[i] for i in kept)
    transitions = tuple(
        sorted(
            (remap[src], sym, remap[dst])
            for (src, sym), dst in edges.items()
            if src in useful and dst in useful
        )
    )
    return Automaton(
        m=m,
        mode=mode,
        divisor=divisor,
        alphabet=alphabet,
        states=final_states,
        start=tuple(sorted(remap[i] for i in start_set if i in useful)),
        transitions=transitions,
        accept_even=tuple(new for new, old in enumerate(kept) if accepts[old][0]),
        accept_odd=tuple(new for new, old in enumerate(kept) if accepts[old][1]),
    )


@cache
def build_canonical(m: int = 4) -> Automaton:
    """The canonical-convention machine for m-row boards.

    The alphabet is stipulation 1, the columns with bottom cell 0; the start
    columns are stipulation 2, those with 2*popcount <= m.  A word is
    accepted iff it is the left half of a Graham board, which fixes the
    board, so the machine accepts exactly the boards `board.is_canonical`
    accepts, each once.  A start state that cannot reach acceptance is
    trimmed with every state it reaches, as none of those can reach
    acceptance either: no state that only a dropped start reaches survives.
    """
    if not 1 <= m <= MAX_ROWS:
        raise ValueError(f"canonical machines are supported for m in 1..{MAX_ROWS}")
    alphabet = tuple(range(1 << (m - 1)))  # bit m-1, the bottom cell, is 0
    start = tuple(v for v in alphabet if 2 * v.bit_count() <= m)
    return _build(m, "canonical", alphabet, start, 1)


@cache
def build_general(m: int) -> Automaton:
    """The unrestricted machine for m-row boards; every cut is read twice."""
    if not 1 <= m <= MAX_ROWS:
        raise ValueError(f"general machines are supported for m in 1..{MAX_ROWS}")
    alphabet = tuple(range(1 << m))
    return _build(m, "general", alphabet, alphabet, 2)


def live_words(a: Automaton, upto: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every word of length 1..upto the machine has not rejected, with the
    index of the state it ends in; shorter words first, each length in
    alphabet order."""
    edges = a._edge_map
    # states sort by column first, and each start column has one start state
    frontier = [((a.states[i].column,), i) for i in a.start]
    for length in range(1, upto + 1):
        if length > 1:
            frontier = [
                (word + (col,), edges[idx, col])
                for word, idx in frontier
                for col in a.alphabet
                if (idx, col) in edges
            ]
        yield from frontier


def accepted_words(a: Automaton, length: int, parity: str) -> list[tuple[int, ...]]:
    """All accepted words of the given length ('even' or 'odd' width)."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    accept = set(a.accept_even if parity == "even" else a.accept_odd)
    return sorted(
        word for word, idx in live_words(a, length) if len(word) == length and idx in accept
    )


# -- transfer matrix ---------------------------------------------------------


@dataclass(frozen=True)
class TransferMatrix:
    """Transition counts of the machine as sparse rows, plus start and accept
    indicator vectors: row i holds the sorted (j, count) pairs with count > 0."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    start_vector: tuple[int, ...]
    accept_even_vector: tuple[int, ...]
    accept_odd_vector: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense table, entry (i, j) counting i -> j, for the reference check."""
        return tuple(tuple(row.get(j, 0) for j in range(self.order)) for row in map(dict, self.rows))


def transfer_matrix(a: Automaton) -> TransferMatrix:
    """Row i counts the transitions from state i to each state j, so walk
    counts equal word counts for any machine.  A built machine has at most
    one per ordered pair (a state records the column just read, so the
    destination fixes the symbol); a machine assembled by hand may have more.
    """
    size = len(a.states)
    counts: list[dict[int, int]] = [{} for _ in range(size)]
    for src, _, dst in a.transitions:
        counts[src][dst] = counts[src].get(dst, 0) + 1
    def indicator(idxs: Sequence[int]) -> tuple[int, ...]:
        vec = [0] * size
        for i in idxs:
            vec[i] = 1
        return tuple(vec)
    return TransferMatrix(
        rows=tuple(tuple(sorted(row.items())) for row in counts),
        start_vector=indicator(a.start),
        accept_even_vector=indicator(a.accept_even),
        accept_odd_vector=indicator(a.accept_odd),
    )


def permutation_similarity_witness(
    ours: Sequence[Sequence[int]], reference: Sequence[Sequence[int]]
) -> list[int] | None:
    """A permutation p with reference[p[i]][p[j]] == ours[i][j], or None.

    Backtracking over candidate images, pruned by (out-degree, in-degree,
    self-loop) signatures and partial-row consistency; fine for order ~9.
    """
    size = len(ours)
    if len(reference) != size:
        return None

    def signature(mat, i):
        return (sum(mat[i]), sum(row[i] for row in mat), mat[i][i])

    ours_sig = [signature(ours, i) for i in range(size)]
    ref_sig = [signature(reference, i) for i in range(size)]
    candidates = [
        [j for j in range(size) if ref_sig[j] == ours_sig[i]] for i in range(size)
    ]
    perm: list[int] = []
    used = [False] * size

    def place(i: int) -> bool:
        if i == size:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            if any(
                reference[perm[k]][j] != ours[k][i] or reference[j][perm[k]] != ours[i][k]
                for k in range(i)
            ):
                continue
            used[j] = True
            perm.append(j)
            if place(i + 1):
                return True
            perm.pop()
            used[j] = False
        return False

    return perm if place(0) else None


def always_rejected_columns(a: Automaton) -> dict[int, dict]:
    """Columns whose every state accepts nothing, with their liveness facts.

    Such a column can occur inside accepted words (its states survive
    trimming exactly when they lie on accepting paths) but a word may never
    *stop* on it.
    """
    by_col: dict[int, list[int]] = {}
    for idx, state in enumerate(a.states):
        by_col.setdefault(state.column, []).append(idx)
    accepting = set(a.accept_even) | set(a.accept_odd)
    out = {}
    for col, idxs in by_col.items():
        if any(i in accepting for i in idxs):
            continue
        out[col] = {
            "states": len(idxs),
            "reachable": True,  # trimmed machines only contain reachable states
            "on_accepting_path": True,  # and only states that can still accept
        }
    return out


# -- serialization ------------------------------------------------------------


def to_json_dict(a: Automaton) -> dict:
    return {
        "m": a.m,
        "mode": a.mode,
        "divisor": a.divisor,
        "alphabet": [list(column_bits(a.m, c)) for c in a.alphabet],
        "states": [
            {
                "column": list(column_bits(a.m, s.column)),
                "profile": {
                    "zero": [list(b) for b in s.zero_blocks],
                    "one": [list(b) for b in s.one_blocks],
                },
            }
            for s in a.states
        ],
        "start": list(a.start),
        "edges": [list(edge) for edge in a.transitions],
        "accept_even": list(a.accept_even),
        "accept_odd": list(a.accept_odd),
    }


def to_dot(a: Automaton) -> str:
    """Graphviz rendering: rectangles start, green always-accepts, purple
    accepts on even widths only, khaki odd widths only.  The comments record
    the mode and alphabet for a human reader."""
    def text(col: int) -> str:
        return "".join(map(str, column_bits(a.m, col)))

    alphabet = ",".join(map(text, a.alphabet))
    lines = [
        "digraph cuts {",
        f"  // mode={a.mode} m={a.m} divisor={a.divisor}",
        f"  // alphabet={alphabet}",
        "  rankdir=LR;",
        '  node [style=filled, fillcolor=white, fontname="monospace"];',
    ]
    even, odd = set(a.accept_even), set(a.accept_odd)
    for idx, state in enumerate(a.states):
        shape = "box" if idx in a.start else "ellipse"
        if idx in even and idx in odd:
            fill = "palegreen"
        elif idx in even:
            fill = "plum"
        elif idx in odd:
            fill = "khaki"
        else:
            fill = "white"
        profile = ";".join("".join(map(str, b)) for b in state.zero_blocks + state.one_blocks)
        label = f"{text(state.column)}\\n[{profile}]"
        lines.append(f'  s{idx} [label="{label}", shape={shape}, fillcolor={fill}];')
    for src, sym, dst in a.transitions:
        lines.append(f'  s{src} -> s{dst} [label="{text(sym)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
