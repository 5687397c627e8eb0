"""Brute-force ground truth by exhaustive left-half sweeps.

Every width-n board that satisfies the complement rule is determined by its
left half of k = ceil(n/2) columns, and the 2^(m*k) left halves are the
candidates (the budget counts all of them).  Candidates are the `bits` of
a Board, cell (i, j) at bit j*m + i, held in uint64 arrays, so at most 64
cells fit.  Masks and shift counts stay Python ints: under NEP 50 (numpy
>= 2.0) a Python int meets a uint64 array as a uint64, and one outside
0..2^64 - 1 raises OverflowError instead of wrapping.  The sweep skips work
it can prove redundant without knowing anything about cuts:

* the complement of a valid board is valid and differs at cell (0, 0), so
  only left halves with that cell 0 are swept, and every survivor adds its
  complement;
* for odd n the middle column must be its own reversed complement, so only
  those 2^(m/2) columns are generated (none for odd m);
* the left-half columns (each with its mirror) fall into two groups, lo
  (the first few) and hi (the rest).  The first column is taken in slices
  of at most 2^13 values, each ORed onto a precomputed table of the other
  lo columns, and the hi table is built once.  The first column is sliced
  because a one-column left half (n <= 2) has no other column to split the
  candidates on, so a tall board would otherwise be one table of 2^(m-1)
  entries.

Most left halves are rejected before they are completed by an isolated-cell
sieve on each table of partial boards: a 1-cell with no 1-neighbour is a
component of its own, and the 1-label has m*n/2 >= 2 cells, so such a board
is no cut.  The tables test only the cells whose four neighbours they
already fix.  The sieve is exact because it only rejects; an isolated
0-cell is the half-turn image of an isolated 1-cell, so testing the 1s
covers both labels.  A table with no such cell skips the sieve, so a
one-column left half (n <= 2) is never sieved, as the lo table tests only
the columns before its last; so neither is m*n = 2, where each label is a
single cell.

Only the boards that pass an Euler-number sieve are ever built.  For the
1-cells, V - E + F (cells, 4-adjacent pairs, 2x2 blocks) is the
4-connectivity Euler number, the number of 4-components minus the number of
8-connected holes (the bit-quad count of Gray, IEEE Trans. Computers C-20,
1971).  In a cut the 1-region is one 4-component and the 0-region is one
4-component that touches the border (the half-turn maps the border onto
itself), so the 1-region has no hole and its Euler number is 1.  Every
candidate has V = m*n/2, so the sieve keeps a board exactly when
E - F = m*n/2 - 1, and it too only rejects.  E - F is a sum of terms on one
column or on two adjacent ones, and only the terms between lo's last column
and hi's first (and between their mirrors) straddle the groups, so
E - F(lo | hi) = E - F(lo) + E - F(hi) + cross, where cross depends on those
two boundary columns alone.  So each table entry is scored once, and a
meet-in-the-middle join (Horowitz & Sahni, JACM 21, 1974) meets each entry
of one table with each distinct boundary column of the other, then takes
the run of entries whose E - F completes the sum.  At 4 x 12 the tables keep
740 of 2048 lo and 2290 of 4096 hi entries, with 16 boundary columns each.
The join makes 11840 queries where testing every completed board would take
1694600, and it builds the 6279 boards with Euler number 1; the flood fill
accepts 4314 of them.

A query enumerates its widths together.  The widest width fixes the split,
and every narrower width of its parity whose lo columns fit in the widest
one's is framed in it, so they share one hi table, their lo tables share
tiles of at most 2^13 entries, and one join serves each tile: a width's
target differs from the frame's by a constant, which is added to its lo
scores (see _euler_blocks).  At 4 x 1..12 that is two hi tables, one per
parity, where the widths enumerated one by one build five.

Connectivity of the survivors of a query is then checked once, per
candidate, by a vectorized flood fill of the 1-region (the 0-region is its
half-turn image, so it is connected exactly when the 1-region is).  The
survivors of all widths of a query are flooded in one pass, in tiles of at
most 2^13 boards that may hold several widths: each board reads its own
width's border, Euler number and masks, and the widest width's row masks
serve every board, as the bits past a board's m*n are 0.  A survivor has
Euler number 1, so its 1-cells have one 4-component more than they have
holes, and the half-turn maps each hole (an 8-component of 0-cells off the
border) onto an 8-component of 1-cells off the border (Rosenfeld's 4/8
duality, Amer. Math. Monthly 86, 1979).  So the 1-cells are 4-connected
exactly when an 8-connected flood seeded at their border cells covers them.
The flood grows every candidate, with no compaction of the working set,
until none grows any more, which each step tests with one comparison and
one reduction, (grown != cur).any().  That takes as many steps as the
farthest 1-cell lies from the border, and one more to see that nothing
grew: 11 at 4 x 12, where a 4-connected flood from one cell needed 23.  The
flood fill is the only test that accepts a board.  This stays a
per-candidate brute-force check; nothing here shares logic with the column
automaton it is used to validate.

Three counting conventions are reported side by side because they genuinely
differ: `canonical` counts matrices satisfying the stipulations (the
sequence's convention), `cuts` counts unordered bipartitions (= matrices/2),
and `orbits` counts cuts up to horizontal reflection.  At width 2 they are
3, 4 and 3.  All three are read from the flood's survivors, one board per
cut (the one with cell (0, 0) = 0): cuts is their number, and canonical
applies the stipulations to them and to their complements.  The orbits
follow from Burnside's lemma (Harary & Palmer, Graphical Enumeration, 1973,
ch. 2) as (cuts + cuts the reflection fixes) / 2, with no sort.  By the
complement rule a board's horizontal reflection is its row flip
complemented, so a cut is fixed exactly when the row flip of its
representative is that board or its complement.  The Burnside and
canonical counts run in the flood's tiles too.  The sorted tuples of all
boards and of the canonical ones are built from the representatives only
when a caller of `sweep` asks for them, as `enumerate_canonical` does.
Each shape is swept at most once per process, alone or with other widths.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .board import Board, is_graham
from .errors import GridcutsError
from . import reference

__all__ = [
    "BudgetError",
    "CountReport",
    "DEFAULT_BUDGET",
    "FigureMismatch",
    "check_half_width",
    "check_shape",
    "count_report",
    "count_reports",
    "delahaye_formula",
    "delahaye_reports",
    "enumerate_canonical",
    "regenerate_figures",
    "sweep",
]

DEFAULT_BUDGET = 1 << 28

# lo entries per tile, and queries per join tile.  Their uint64
# arrays are 64 KB, under glibc's 128 KB mmap threshold, so the temporaries
# reuse heap pages; at 2^14 each one was a fresh mmap, and the benchmark's
# oracle workload peaked about 0.4 MB higher
_CHUNK = 1 << 13


class BudgetError(GridcutsError, RuntimeError):
    """The sweep would exceed the candidate budget; nothing was computed."""


class FigureMismatch(GridcutsError, RuntimeError):
    """A reference gallery board failed verification."""


# (block width, mask of the low block of every pair) for each swap step of a
# bit reversal, smallest blocks first
_SWAPS = tuple(
    (width, sum(((1 << width) - 1) << i for i in range(0, 64, 2 * width)))
    for width in (1, 2, 4, 8, 16, 32)
)


def _revcomp_columns(cols: np.ndarray, m: int) -> np.ndarray:
    """Element-wise: each m-bit column read bottom to top and complemented.

    Each column must be below 2^m.  Its low 2^k bits, for the smallest
    2^k >= m, are reversed by swapping ever larger blocks (Warren, Hacker's
    Delight, section 7-1), then shifted down by 2^k - m to m bits.  So k
    swap steps run, not the six of a whole 64-bit word: two at m = 4.
    """
    k = (m - 1).bit_length()
    rev = cols
    for width, low in _SWAPS[:k]:
        rev = ((rev >> width) & low) | ((rev & low) << width)
    return (rev >> ((1 << k) - m)) ^ ((1 << m) - 1)


def _self_revcomp_columns(m: int, top: np.ndarray) -> np.ndarray:
    """The m-bit columns equal to their own reversed complement, one per top half.

    The top half of such a column fixes its bottom half, so each value in
    top (m/2 bits) gives one column for even m; odd m gives none (the centre
    cell would have to be its own complement).
    """
    if m % 2:
        return np.zeros(0, dtype=np.uint64)
    half = m // 2
    return top | (_revcomp_columns(top, m) >> half << half)


def _row_masks(m: int, n: int) -> tuple[int, int]:
    """Masks of the cells not in the top row and not in the bottom row."""
    full = (1 << (m * n)) - 1
    top = sum(1 << (j * m) for j in range(n))
    return full & ~top, full & ~(top << (m - 1))


def _border(m: int, n: int) -> int:
    """Mask of the top and bottom rows and the first and last columns (none at n = 0)."""
    not_top, not_bottom = _row_masks(m, n)
    return ((1 << (m * n)) - 1) & ~(not_top & not_bottom) | (_columns_mask(m, (0, n - 1)) if n else 0)


def _bottom_left(m: int, n: int) -> int:
    """Mask of the left half of the bottom row, which a canonical board keeps 0."""
    return sum(1 << (j * m + m - 1) for j in range((n + 1) // 2))


def _neighbours(bits: np.ndarray, m: int, not_top: int, not_bottom: int) -> np.ndarray:
    """Element-wise: the cells 4-adjacent to a set cell (bits past m*n may be set)."""
    return (((bits & not_top) >> 1)
            | ((bits & not_bottom) << 1)
            | (bits >> m)
            | (bits << m))


def _isolated(bits: np.ndarray, cells: int, m: int, not_top: int, not_bottom: int) -> np.ndarray:
    """Element-wise: some 1-cell inside the cells mask has no 1-neighbour.

    Such a cell is a component of its own, and the 1-label has m*n/2 >= 2
    cells, so the board cannot be a cut.  The cells mask must only hold
    cells whose four neighbours are all determined by bits.
    """
    lonely = bits & cells & ~_neighbours(bits, m, not_top, not_bottom)
    return lonely != 0


def _connected(bits: np.ndarray, m: int, n: int, border: np.ndarray | None = None,
               target: np.ndarray | None = None) -> np.ndarray:
    """Element-wise: the 1-cells of a complement-rule board with Euler number 1
    form one 4-connected region.

    Every board has width n, or, given per-board border masks and E - F
    targets (m*w/2 - 1 at width w), any width up to n: the bits past a
    board's cells are 0, so the row masks of width n serve it.

    Euler number 1 means c4 - h = 1, with c4 the 4-components of the
    1-cells and h the 8-components of 0-cells that touch no border cell
    (Gray's bit-quad count, see _edges_minus_squares).  The half-turn maps
    the 0-cells onto the 1-cells and preserves the border and 8-adjacency
    (the 4/8 duality of Rosenfeld, "Digital topology", Amer. Math. Monthly
    86, 1979), so h is also the number of 8-components of 1-cells that
    touch no border cell.  Hence c4 = 1 exactly when an 8-connected flood
    seeded at the 1-cells on the border covers every 1-cell.

    The flood grows by one 8-neighbourhood a step inside the label mask,
    so it takes as many steps as the farthest 1-cell lies from the border,
    not as the longest path through the region.  Every candidate grows in
    every step until no candidate grows any more; one that has stopped
    stays as it is, so nothing is compacted, and a candidate is connected
    exactly when its flood then covers its mask.
    """
    not_top, not_bottom = _row_masks(m, n)
    if border is None:
        border, target = _border(m, n), m * n // 2 - 1
    assert (_edges_minus_squares(bits, m, not_bottom) == target).all()
    cur = bits & border
    del border  # one per board is as large as bits: not kept through the flood
    while True:
        column = cur | ((cur & not_top) >> 1) | ((cur & not_bottom) << 1)
        grown = (column | (column >> m) | (column << m)) & bits
        if not (grown != cur).any():
            return cur == bits
        cur = grown


def _canonical_mask(boards: np.ndarray, m: int, bottom_left) -> np.ndarray:
    """Element-wise: the board meets the stipulations of board.is_canonical.

    bottom_left is _bottom_left of the boards' width, one int or one per board.
    """
    return ((boards & bottom_left) == 0) & (np.bitwise_count(boards & ((1 << m) - 1)) <= m // 2)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All complement-rule cuts of one shape, and their number up to
    horizontal reflection.

    representatives holds one board per cut, the one whose cell (0, 0) is
    0, as a read-only uint64 array in the flood fill's order; the other
    board of each cut is its complement.  orbits and canonical_count (the
    boards that meet the stipulations) are counted with the flood, so a
    count reads fields alone.  `graham` (every board) and `canonical`,
    sorted tuples of bitboard integers, are built from the representatives
    on first use and cached, so a count sorts nothing and makes no Python
    int per board.
    """

    m: int
    n: int
    representatives: np.ndarray
    orbits: int
    canonical_count: int

    def _boards(self) -> np.ndarray:
        reps = self.representatives
        return np.concatenate([reps, reps ^ ((1 << (self.m * self.n)) - 1)])

    @cached_property
    def graham(self) -> tuple[int, ...]:
        return tuple(np.sort(self._boards()).tolist())

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        boards = self._boards()
        return tuple(np.sort(boards[_canonical_mask(boards, self.m, _bottom_left(self.m, self.n))]).tolist())


def _outer_or(parts: list[np.ndarray]) -> np.ndarray:
    """Every OR of one entry from each array, as one flat array."""
    table = np.zeros(1, dtype=np.uint64)
    for part in parts:
        table = (table[:, None] | part[None, :]).ravel()
    return table


@cache
def _column_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every m-bit column and its reversed complement, read-only, built once per m."""
    columns = np.arange(1 << m, dtype=np.uint64)
    revcomp = _revcomp_columns(columns, m)
    columns.flags.writeable = revcomp.flags.writeable = False
    return columns, revcomp


def _partial_boards(m: int, n: int, j: int, free: np.ndarray | None = None) -> np.ndarray:
    """Left-half column j set from each free value, with its mirror column.

    Column j contributes itself at column j and its reversed complement at
    column n-1-j.  The middle column of an odd width is its own reversed
    complement: it contributes itself alone, and its free value is its top
    half.  free defaults to every free value, in order.  The reversed
    complements are read from _column_table, except for a first-column
    slice at n <= 3: no other column builds the table there, and its 2^m
    entries would outgrow the slice (64 MB at 22 x 2).
    """
    if 2 * j + 1 == n:
        if free is None:
            free = np.arange(1 << (m // 2), dtype=np.uint64)
        return _self_revcomp_columns(m, free) << (j * m)
    if free is None:
        free, revcomp = _column_table(m)
    elif n >= 4:
        revcomp = _column_table(m)[1][free]
    else:
        revcomp = _revcomp_columns(free, m)
    return (free << (j * m)) | (revcomp << ((n - 1 - j) * m))


def _columns_mask(m: int, columns) -> int:
    """Mask of every cell in these columns."""
    # a set: the middle column of an odd width is its own mirror
    return sum(((1 << m) - 1) << (j * m) for j in set(columns))


class _Half(NamedTuple):
    """Partial boards of one column group, sorted by (boundary column, E - F).

    The boundary column is the group's column next to the other group; it
    and its mirror are the only cells whose pairs and 2x2 blocks straddle
    the two groups.  edge is each board cut down to those two columns,
    group the index of its boundary column among the distinct ones, and
    head the first entry of each group.  The join reads a group's edge from
    its head, so the mirror must be fixed by the boundary column, as the
    complement rule fixes it.  width is each entry's index in the query's
    widths for a lo table, and None for a hi table, which serves them all.
    """

    boards: np.ndarray
    score: np.ndarray
    edge: np.ndarray
    group: np.ndarray
    head: np.ndarray
    width: np.ndarray | None


def _half(boards: np.ndarray, score: np.ndarray, m: int, col: int, mirror: int, target: int,
          width: np.ndarray | None = None) -> _Half:
    """The boards whose score is at most target, keyed for the join on column col.

    score is each board's E - F, raised for a lo entry by its width's
    offset (see _euler_blocks).  E - F is never negative, of a half or of
    the straddling terms: each 2x2 block holds two of the pairs counted
    with it, and each pair lies in at most two blocks.  So E - F of a
    completed board is at least that of either half, a half above target
    never completes to a cut, and dropping it keeps every score inside the
    join's cells.
    """
    keep = score <= target
    boards = boards[keep]
    # one sort of (boundary column, score, index): a join has two column groups,
    # so n >= 3, m <= 21, and the key takes 21 + 8 + 32 bits
    column = (boards >> (col * m)) & ((1 << m) - 1)
    key = (column << 40) | (score[keep].astype(np.uint64) << 32) | np.arange(boards.size, dtype=np.uint64)
    key.sort()
    order = (key & 0xFFFFFFFF).astype(np.int64)
    boards, column = boards[order], key >> 40
    if width is not None:
        width = width[keep][order]
    # the entries whose column differs from the one before (the first always does)
    new = np.ones(column.size, dtype=bool)
    new[1:] = column[1:] != column[:-1]
    group, head = new.cumsum() - 1, new.nonzero()[0]
    edge = boards & _columns_mask(m, (col, mirror))
    score = ((key >> 32) & 0xFF).astype(np.int16)
    return _Half(boards, score, edge, group, head, width)


def _join(q: _Half, t: _Half, m: int, target: int, not_bottom: int):
    """The (q index, t index) pairs whose boards OR to E - F target, in blocks.

    E - F(q | t) = E - F(q) + E - F(t) + cross, where cross counts the pairs
    and 2x2 blocks that straddle the groups, so it depends on the two
    boundary columns alone.  Each q entry meets each distinct boundary
    column of t, in tiles of at most _CHUNK such queries.  cross comes from
    the same _edges_minus_squares, on boards that hold only the boundary
    columns, and the t entries that match are those of that group whose
    score completes q's to target.  A lo entry's score carries its width's
    offset, so the pairs of every width of a tile meet target together.
    """
    # t's entries of group g with score s make up cell g * width + 1 + s.  A
    # wanted score is at most target, and one below 0 is clipped to -1, whose
    # cell g * width is always empty
    width = target + 2
    rep = t.edge[t.head]
    count = np.bincount(t.group * width + 1 + t.score, minlength=rep.size * width)
    run = count.cumsum() - count
    occupied = count.astype(bool)
    # the wanted score is target - score(q) - cross, and
    # cross = E-F(q.edge | rep) - E-F(q.edge) - E-F(rep).  Scores and E - F lie
    # in 0..255, so int16 holds every term: a tile's need is 16 KB, not 64 KB
    q_part = _edges_minus_squares(q.edge, m, not_bottom) - q.score
    t_part = _edges_minus_squares(rep, m, not_bottom).astype(np.int16) + target
    base = np.arange(rep.size) * width + 1
    cols = max(1, min(rep.size, _CHUNK))
    rows = _CHUNK // cols
    for r in range(0, q.boards.size, rows):
        for c in range(0, rep.size, cols):
            edges = q.edge[r:r + rows, None] | rep[c:c + cols]
            need = t_part[c:c + cols] + q_part[r:r + rows, None] - _edges_minus_squares(edges, m, not_bottom)
            cell = (base[c:c + cols] + np.maximum(need, -1)).ravel()
            found = occupied[cell].nonzero()[0]
            cell = cell[found]
            first, hits = run[cell], count[cell]
            # the hits[i] entries of t from first[i] on, for every query i
            pos = (first - hits.cumsum() + hits).repeat(hits) + np.arange(hits.sum())
            yield r + (found // edges.shape[1]).repeat(hits), pos


def _lo_tiles(m: int, n: int, split: int, rest: list[np.ndarray], members: list[tuple[int, int]]):
    """The lo tables of a group's widths, framed at width n, in tiles of at most _CHUNK.

    members holds (index in the query's widths, frame column d) pairs.  A
    width's lo is its first column, at frame column d and even (cell (0, 0)
    is its bit 0, its top half's when the width is 1), ORed onto every
    board of its other lo columns, rest[d:split].  The first column is
    taken in slices of at most _CHUNK values; the group's split keeps each
    slice's table within _CHUNK entries, and the tables of several widths
    share a tile while they fit.  Yields each tile as its slices' (index,
    d, boards).
    """
    tiles, size = [], 0
    for i, d in members:
        rows = math.prod(part.size for part in rest[d:split])  # of the table a slice is ORed onto
        end = 1 << (m // 2 if 2 * d + 1 == n else m)
        for start in range(0, end, 2 * _CHUNK):
            values = range(start, min(start + 2 * _CHUNK, end), 2)
            if not tiles or size + len(values) * rows > _CHUNK:
                tiles.append([])
                size = 0
            tiles[-1].append((i, d, values))
            size += len(values) * rows
    # each tile's slices are built as it is yielded, so none outlives its tile
    for tile in tiles:
        yield [(i, d, (_partial_boards(m, n, d, np.arange(v.start, v.stop, 2, dtype=np.uint64))[:, None]
                       | _outer_or(rest[d:split])).ravel()) for i, d, v in tile]


def _euler_blocks(m: int, widths: list[int]):
    """Completed boards with cell (0, 0) = 0 and Euler number 1 of distinct
    widths of height m, as blocks of (boards, each board's index in widths).

    A completed board is an OR of one partial board per left-half column.
    The widest width n left fixes the split it would fix alone: lo is its
    first split + 1 columns, hi the rest, an inner block of width
    w = n - 2*(split + 1), built once.  Each width n - 2d of its parity with
    d <= split is framed in width n at column d, so its boundary column and
    inner block are lo's and hi's, and its lo is its first column and
    columns d+1..split of the frame.  Framing keeps E - F, and the frame's
    target exceeds the width's by m*d, the bits of the shift, so each lo
    entry's score carries that offset, one join serves every width of a
    tile (see _join), and the boards it passes are shifted back.  Narrower
    widths of that parity form a later group.  When lo takes every column
    there is no hi: the group is every width of that parity left, and each
    slice is tested board by board.
    """
    todo = sorted(range(len(widths)), key=widths.__getitem__, reverse=True)
    while todo:
        n = widths[todo[0]]
        k = (n + 1) // 2
        rest = [_partial_boards(m, n, j) for j in range(1, k)]
        split, size = 0, min(_CHUNK, 1 << (m - 1))  # size: of one first-column slice
        while split < len(rest) and size * rest[split].size <= _CHUNK:
            size *= rest[split].size
            split += 1
        members = [(i, (n - widths[i]) // 2) for i in todo if n - widths[i] in range(0, 2 * split + 1, 2)]
        grouped = {i for i, _ in members}
        todo = [i for i in todo if i not in grouped]
        if k == 0:
            continue
        # sieve each table on the cells whose four neighbours lie in its own column
        # groups: columns 0..split-1 for lo, split+2..k-1 for hi, and mirrors.  The
        # cells of a framed width outside it are 0, so they never fail the sieve
        not_top, not_bottom = _row_masks(m, n)
        lo_cells = _columns_mask(m, [c for j in range(split) for c in (j, n - 1 - j)])
        hi_cells = _columns_mask(m, [c for j in range(split + 2, k) for c in (j, n - 1 - j)])
        # every candidate has V = m*n/2 one-cells, and a cut has Euler number 1
        target = m * n // 2 - 1
        hi = None
        if split < len(rest):
            hi = _outer_or(rest[split:])
            hi = hi[~_isolated(hi, hi_cells, m, not_top, not_bottom)] if hi_cells else hi
            hi = _half(hi, _edges_minus_squares(hi, m, not_bottom), m, split + 1, n - 2 - split, target)
        # each member's shift in the frame, m*d, is also its score offset
        offset = np.zeros(len(widths), dtype=np.uint8)
        for i, d in members:
            offset[i] = m * d
        for tile in _lo_tiles(m, n, split, rest, members):
            parts = []
            for i, d, lo in tile:
                lo = lo[~_isolated(lo, lo_cells, m, not_top, not_bottom)] if lo_cells else lo
                score = _edges_minus_squares(lo, m, not_bottom) + m * d
                if hi is None:
                    lo = lo[score == target] >> m * d
                    yield lo, np.full(lo.size, i, dtype=np.uint8)
                else:
                    parts.append((lo, score, np.full(lo.size, i, dtype=np.uint8)))
            if hi is None:
                continue
            boards, score, width = (np.concatenate(column) for column in zip(*parts))
            lo = _half(boards, score, m, split, n - 1 - split, target, width)
            del tile, parts, boards, score, width  # sorted into lo: not kept through the join
            # query from the side that meets fewer boundary columns in total
            if lo.boards.size * hi.head.size <= hi.boards.size * lo.head.size:
                pairs = _join(lo, hi, m, target, not_bottom)
            else:
                pairs = ((a, b) for b, a in _join(hi, lo, m, target, not_bottom))
            for a, b in pairs:
                width = lo.width[a]
                yield (lo.boards[a] | hi.boards[b]) >> offset[width], width


def _edges_minus_squares(bits: np.ndarray, m: int, not_bottom: int) -> np.ndarray:
    """Element-wise E - F: 4-adjacent pairs of 1-cells minus 2x2 blocks of 1-cells.

    With V the number of 1-cells, V - E + F is the 4-connectivity Euler
    number of the 1-cells: 4-components minus 8-connected holes.  A 2x2
    block is a vertical pair whose right neighbour is one too, so every
    block's bit lies in vert, and the vertical pairs minus the blocks are
    the pairs that start no block.  The popcounts are uint8, which holds E
    (at most 2*64 pairs).
    """
    vert = bits & (bits >> 1) & not_bottom
    horiz = bits & (bits >> m)
    return np.bitwise_count(vert & ~(vert >> m)) + np.bitwise_count(horiz)


def check_shape(m: int, n: int, budget: int = DEFAULT_BUDGET) -> None:
    """Raise what sweep(m, n, budget=budget) would raise before sweeping.

    BudgetError if the 2^(m*ceil(n/2)) candidates exceed the budget (the
    exponent is compared, so huge shapes cost nothing), ValueError for a bad
    shape or one that does not fit a 64-bit bitboard.
    """
    if m < 1 or n < 0:
        raise ValueError(f"bad shape {m}x{n}")
    bits = m * ((n + 1) // 2)
    # 2^bits > budget exactly when bits >= budget.bit_length(), for budget >= 0
    if n > 0 and bits >= max(budget, 0).bit_length():
        raise BudgetError(
            f"shape {m}x{n} needs 2^{bits} candidates, budget is {budget}; "
            "raise --budget to run it"
        )
    if m * n > 64:
        raise ValueError(f"shape {m}x{n} has {m * n} cells; a bitboard holds at most 64")
    if m > 64:  # a column is one m-bit word, even at width 0
        raise ValueError(f"shape {m}x{n} has {m} rows; a bitboard column holds at most 64")


def sweep(m: int, n: int, *, budget: int = DEFAULT_BUDGET) -> SweepResult:
    """Enumerate every complement-rule two-component board of the given shape.

    Raises BudgetError (never truncates) or ValueError as check_shape does.
    The first column is taken in slices, and the join and the flood in
    tiles, of at most _CHUNK, so memory grows with the hi table and the
    Euler sieve's survivors, not with the first column's 2^(m-1) values.
    This is the one-width case of a query (see _sweeps).
    """
    (result,) = _sweeps(m, (n,), budget)
    return result


def _sweeps(m: int, widths: tuple[int, ...], budget: int) -> list[SweepResult]:
    """The SweepResult of each width of height m, in order.

    Every width is checked before any is swept, and before the cache, so
    exit codes do not depend on prior calls.  The widths the cache lacks
    are swept in one _sweep_widths pass.
    """
    for n in widths:
        check_shape(m, n, budget)
    return _sweep_cache.results(m, widths)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int


class _SweepCache:
    """Every SweepResult of this process, by shape, however it was asked for.

    A shape is swept at most once, alone or with other widths, and every
    caller gets the same result.  As for a functools.cache, cache_info()
    counts each requested shape answered from the cache as a hit and each
    shape swept as a miss, and cache_clear() empties it.
    """

    def __init__(self) -> None:
        self._results: dict[tuple[int, int], SweepResult] = {}
        self._hits = self._misses = 0

    def results(self, m: int, widths: tuple[int, ...]) -> list[SweepResult]:
        new = sorted({n for n in widths if (m, n) not in self._results})
        if new:
            self._results.update(((m, n), result) for n, result in zip(new, _sweep_widths(m, new)))
        self._misses += len(new)
        self._hits += len(widths) - len(new)
        return [self._results[m, n] for n in widths]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, len(self._results))

    def cache_clear(self) -> None:
        self._results.clear()
        self._hits = self._misses = 0


_sweep_cache = _SweepCache()


def _sweep_widths(m: int, widths: list[int]) -> list[SweepResult]:
    """The SweepResults of distinct widths of height m, in order, from one pass.

    The widths are enumerated together (see _euler_blocks), and each
    survivor comes with its index in widths.  The flood with its Euler
    assertion, the Burnside count and the canonical count then run once
    over all survivors, in tiles of at most _CHUNK boards that may hold
    several widths.  Each board reads its own width's border, E - F target,
    full mask and bottom-left mask by that index, and the widest width's
    row masks serve every board (see _connected).  The counts of each width
    are read back with bincount, and a stable sort on the index gathers
    each width's representatives in the flood's order.
    """
    found = list(_euler_blocks(m, widths))
    survivors = np.concatenate([np.zeros(0, dtype=np.uint64), *(boards for boards, _ in found)])
    index = np.concatenate([np.zeros(0, dtype=np.uint8), *(width for _, width in found)])
    del found

    widest, k = max(widths), len(widths)
    border = np.array([_border(m, n) for n in widths], dtype=np.uint64)
    target = np.array([m * n // 2 - 1 for n in widths], dtype=np.int8)  # -1..31
    full = np.array([(1 << (m * n)) - 1 for n in widths], dtype=np.uint64)
    bottom_left = np.array([_bottom_left(m, n) for n in widths], dtype=np.uint64)
    top_row = sum(1 << (j * m) for j in range(widest))
    parts, part_widths = [], []
    cuts, fixed, canonical = (np.zeros(k, dtype=np.int64) for _ in range(3))
    for lo in range(0, survivors.size, _CHUNK):
        bits, tile_index = survivors[lo:lo + _CHUNK], index[lo:lo + _CHUNK]
        # intp once here, so no gather or bincount below casts the index
        width = tile_index.astype(np.intp)
        # the 0-region is the half-turn image of the 1-region, so it is connected
        # exactly when the 1-region is; and every survivor has Euler number 1, so
        # the 1s are connected exactly when a flood from their border cells
        # covers them (see _connected)
        connected = _connected(bits, m, widest, border[width], target[width])
        reps, width = bits[connected], width[connected]
        parts.append(reps)
        part_widths.append(tile_index[connected])  # uint8: a stable argsort of it is a radix sort
        cuts += np.bincount(width, minlength=k)

        # Burnside: the orbits of the cuts under horizontal reflection number
        # (cuts + cuts the reflection fixes) / 2.  A board b obeys b = rot(b) ^ full
        # with rot the half-turn, i.e. the row flip of the column reversal, so its
        # column reversal is its row flip complemented, and a cut {h, h ^ full} is
        # fixed exactly when the row flip of h is h or h ^ full
        complement = reps ^ full[width]
        # the row flip swaps rows i and m-1-i, and keeps an odd m's middle row
        vflip = reps & (top_row << (m // 2)) if m % 2 else np.zeros_like(reps)
        for i in range(m // 2):
            row, shift = top_row << i, m - 1 - 2 * i
            vflip |= ((reps & row) << shift) | ((reps >> shift) & row)
        fixed += np.bincount(width[(vflip == reps) | (vflip == complement)], minlength=k)
        corner = bottom_left[width]
        canonical += np.bincount(width[_canonical_mask(reps, m, corner)], minlength=k)
        canonical += np.bincount(width[_canonical_mask(complement, m, corner)], minlength=k)

    del survivors, index
    reps = np.concatenate([np.zeros(0, dtype=np.uint64), *parts])
    if k > 1:
        reps = reps[np.concatenate([np.zeros(0, dtype=np.uint8), *part_widths]).argsort(kind="stable")]
    # the cache hands these boards to every caller
    reps.flags.writeable = False
    results, end = [], 0
    for n, cut, fix, canon in zip(widths, cuts.tolist(), fixed.tolist(), canonical.tolist()):
        start, end = end, end + cut
        orbits = (cut + fix) // 2
        assert (cut + fix) % 2 == 0 and (orbits <= cut <= 2 * orbits or cut == 0)
        assert m * n % 2 == 0 or not cut
        results.append(SweepResult(m, n, reps[start:end], orbits, canon))
    return results


@dataclass(frozen=True)
class CountReport:
    """The three counting conventions for one board shape.

    elapsed_ms is the wall time of the call that made the report.  Every
    report of one count_reports call carries that call's time, which
    covers the sweep of each of its widths the cache lacked and nothing
    done before it; a call whose widths are all cached reads only the
    cache, and its time shows that.
    """

    m: int
    n: int
    canonical: int
    cuts: int
    orbits: int
    elapsed_ms: float

    @property
    def canonical_validated(self) -> bool:
        """The stipulations behind `canonical` are validated for m = 4 only;
        every other height the sweep reaches reports the column flagged."""
        return self.m == 4

    def to_json_dict(self, *, timings: bool = True) -> dict:
        data = {
            "m": self.m,
            "n": self.n,
            "canonical": self.canonical,
            "cuts": self.cuts,
            "orbits": self.orbits,
        }
        if timings:
            data["elapsed_ms"] = self.elapsed_ms
        if not self.canonical_validated:
            data["canonical_validated"] = False
        return data


def count_reports(m: int, widths: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> list[CountReport]:
    """Count canonical matrices, cuts and reflection orbits of each width, in order.

    Every width is checked as check_shape does before any is swept, and
    the widths not yet swept in this process are swept in one pass.  Every
    shape check_shape accepts is answered, at any height.  All three counts
    are fields of the cached SweepResult: cuts is the number of its
    representatives, one board per cut, and canonical and orbits were
    counted with the flood.  No board array is sorted or rebuilt.
    """
    widths = tuple(widths)
    started = time.perf_counter()
    results = _sweeps(m, widths, budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return [CountReport(m, r.n, r.canonical_count, r.representatives.size, r.orbits, elapsed_ms)
            for r in results]


def count_report(m: int, n: int, *, budget: int = DEFAULT_BUDGET) -> CountReport:
    """count_reports for the one width n."""
    (report,) = count_reports(m, (n,), budget=budget)
    return report


def enumerate_canonical(m: int, n: int, *, budget: int = DEFAULT_BUDGET) -> list[Board]:
    """All canonical boards of shape m x n, sorted by their cell arrays.

    The stipulations are validated for m = 4 only, so other row counts are
    rejected here; use count_report for flagged counts at other m.
    """
    if m != 4:
        raise ValueError("canonical enumeration is defined for m=4 boards")
    result = sweep(m, n, budget=budget)
    boards = [Board(m, n, b) for b in result.canonical]
    boards.sort(key=lambda b: b.cells)
    return boards


def delahaye_formula(n: int) -> int:
    """Closed form 2^(n+1) - n - 1 for the known 3 x 2n cut count."""
    return (1 << (n + 1)) - n - 1


def check_half_width(n: int) -> None:
    """Raise ValueError unless delahaye_reports accepts half-width n."""
    if n < 1 or n > 6:
        raise ValueError("half-width n must be in 1..6")


def delahaye_reports(half_widths: Iterable[int]) -> list[dict]:
    """Put the 3 x 2n closed form next to the oracle's own counts, for each
    half-width n in order.

    No equality is asserted; each report records which conventions the
    closed form happens to match.  Empirically (n <= 6) it matches the
    reflection-orbit and stipulation counts, not the raw cut count: at
    n = 3 the formula gives 12 while the sweep finds 23 cuts in 12 orbits.
    Every half-width is checked before any is swept, and the widths 2n are
    counted in one count_reports call.  Half-widths 1..6 sweep at most
    2^18 candidates, so the default budget always admits them.
    """
    half_widths = tuple(half_widths)
    for n in half_widths:
        check_half_width(n)
    reports = []
    for n, report in zip(half_widths, count_reports(3, [2 * n for n in half_widths])):
        formula = delahaye_formula(n)
        reports.append({
            "n": n,
            "formula": formula,
            "cuts": report.cuts,
            "orbits": report.orbits,
            "canonical": report.canonical,
            "formula_matches_cuts": formula == report.cuts,
            "formula_matches_orbits": formula == report.orbits,
        })
    return reports


def regenerate_figures() -> dict[str, list[Board]]:
    """Verify and return the two reference galleries.

    The twelve 4x6 boards must all appear in the canonical enumeration; the
    twelve 3x6 boards must be valid two-component complement-rule boards with
    no 1 in the left half of the bottom row.  That is the first stipulation
    only: the column-0 one is not checked, and boards 1, 3, 5 and 7 have
    more 1s than 0s in column 0.  Any offender is listed in the raised
    FigureMismatch.
    """
    bad: list[str] = []

    canonical_4x6 = set(enumerate_canonical(4, 6))
    for idx, board in enumerate(reference.GALLERY_4X6):
        if board not in canonical_4x6:
            bad.append(f"4x6 gallery board {idx} is not in the canonical enumeration:\n{board.to_ascii()}")

    k = 3  # left half of width 6
    for idx, board in enumerate(reference.GALLERY_3X6):
        if not is_graham(board):
            bad.append(f"3x6 gallery board {idx} is not a valid cut:\n{board.to_ascii()}")
            continue
        if any(board.cells[board.m - 1][j] != 0 for j in range(k)):
            bad.append(f"3x6 gallery board {idx} violates the bottom-row stipulation:\n{board.to_ascii()}")

    if bad:
        raise FigureMismatch("\n\n".join(bad))
    return {
        "three_by_six": list(reference.GALLERY_3X6),
        "four_by_six": list(reference.GALLERY_4X6),
    }

