"""Exact 0/1 boards and the central-complement cut model.

A cut of an m x n grid into two congruent connected pieces is modelled as a
0/1 matrix in which the two labels mark the two pieces.  Congruence is the
central-complement rule

    cell (i, j) = 1 - cell (m-1-i, n-1-j)

(the two pieces are swapped by a half-turn of the board), and validity
additionally requires each label to form a single 4-adjacent component.
Matrices with both properties are called Graham matrices here.

A board is an immutable bitboard (m, n, bits): cell (i, j), row i of column
j, is bit j*m + i.  Column j is then the m-bit integer
(bits >> j*m) & (2^m - 1) with the top row in bit 0, which is how the oracle
packs its candidates and how the automaton reads its columns; this
module takes and returns columns as such integers.  Under this packing the
half-turn maps bit p to bit m*n-1-p, so rot180 reverses the m*n-bit string
and the complement rule reads bits ^ rev(bits) == 2^(m*n) - 1.  The row-major
`cells` grid is a derived view for the writers.

A rule board is determined by its left half (columns 0..ceil(n/2)-1; for odd
n the middle column must equal its own reversed complement).  The canonical
representative used for counting fixes two stipulations: the left half of the
bottom row is all zeros, and the first column has at least as many zeros as
ones.  The stipulations are only validated for m = 4; `is_canonical` warns on
other row counts.

Everything in this module is an immutable value; all functions are pure.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Board",
    "BOARD_TRANSFORMS",
    "CanonicalConventionWarning",
    "boards_to_svg",
    "complete_board",
    "component_counts",
    "is_canonical",
    "is_graham",
    "revcomp",
    "satisfies_complement_rule",
    "transform",
]

SVG_FILL_ZERO = "#f4ecd8"
SVG_FILL_ONE = "#3a6ea5"
SVG_SCALE = 24  # pixels per cell

BOARD_TRANSFORMS = ("hflip", "vflip", "rot180", "complement")


class CanonicalConventionWarning(UserWarning):
    """The canonical stipulations are only validated for 4-row boards."""


def _reverse(bits: int, width: int) -> int:
    """The low `width` bits of `bits` in reverse order."""
    # a sentinel bit keeps leading zeros; [:2:-1] drops "0b1" and reverses
    return int(bin(bits | (1 << width))[:2:-1], 2)


def revcomp(m: int, col: int) -> int:
    """Reverse an m-bit column top-to-bottom and flip every label.

    This is the central-complement rule restricted to one column: column j of
    a valid board determines column n-1-j as its reversed complement.  It is
    an involution.
    """
    return _reverse(col, m) ^ ((1 << m) - 1)


@dataclass(frozen=True)
class Board:
    """An m x n grid of 0/1 labels; cell (i, j) is bit j*m + i of `bits`."""

    m: int
    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("board must have at least one row and one column")
        if not 0 <= self.bits < 1 << (self.m * self.n):
            raise ValueError(f"bits {self.bits} do not fit a {self.m}x{self.n} board")

    @property
    def full(self) -> int:
        """The all-ones board of this shape, as bits."""
        return (1 << (self.m * self.n)) - 1

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Row-major view, cells[i][j] = row i, column j."""
        m, n, bits = self.m, self.n, self.bits
        return tuple(tuple((bits >> (j * m + i)) & 1 for j in range(n)) for i in range(m))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Board":
        grid = [[int(c) for c in row] for row in rows]
        if not grid or not grid[0]:
            raise ValueError("board must have at least one row and one column")
        m, n = len(grid), len(grid[0])
        bits = 0
        for i, row in enumerate(grid):
            if len(row) != n:
                raise ValueError("ragged board")
            for j, c in enumerate(row):
                if c not in (0, 1):
                    raise ValueError("board cells must be 0/1")
                bits |= c << (j * m + i)
        return cls(m, n, bits)

    def columns(self) -> tuple[int, ...]:
        """Each column as an m-bit integer, top row in bit 0."""
        m, bits, mask = self.m, self.bits, (1 << self.m) - 1
        return tuple([(bits >> shift) & mask for shift in range(0, m * self.n, m)])

    def left_half(self) -> tuple[int, ...]:
        """Columns 0..ceil(n/2)-1; for odd n this includes the middle column."""
        return self.columns()[: (self.n + 1) // 2]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "rows": [list(row) for row in self.cells]}

    def to_ascii(self) -> str:
        return "\n".join("".join("#" if c else "." for c in row) for row in self.cells)


def boards_to_svg(boards: Sequence[Board]) -> str:
    """One SVG document with the boards stacked vertically, one unit apart,
    each a <g class="board"> of unit rects."""
    if not boards:
        raise ValueError("no boards to render")
    width = max(b.n for b in boards)
    height = sum(b.m + 1 for b in boards) - 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width * SVG_SCALE}" height="{height * SVG_SCALE}">'
    ]
    dy = 0
    for board in boards:
        parts.append(f'<g class="board" transform="translate(0,{dy})">')
        for i, row in enumerate(board.cells):
            for j, c in enumerate(row):
                fill = SVG_FILL_ONE if c else SVG_FILL_ZERO
                parts.append(
                    f'<rect x="{j}" y="{i}" width="1" height="1" fill="{fill}" '
                    f'stroke="#555" stroke-width="0.02"/>'
                )
        parts.append("</g>")
        dy += board.m + 1
    parts.append("</svg>\n")
    return "\n".join(parts)


def complete_board(m: int, n: int, left: Sequence[int]) -> Board:
    """Extend a left half of m-bit columns to the width-n rule board.

    `left` must hold ceil(n/2) columns; for odd n its last column is the
    middle column and must be its own reversed complement.  The right
    columns are the half-turn image of the left half with labels flipped.
    """
    k = (n + 1) // 2
    if len(left) != k:
        raise ValueError(f"need {k} left columns for width {n}, got {len(left)}")
    if left and not 0 <= min(left) <= max(left) < 1 << m:
        raise ValueError(f"column values {list(left)} not all in [0, 2^{m})")
    half = 0
    for col in reversed(left):
        half = (half << m) | col
    if n % 2 == 1 and revcomp(m, left[-1]) != left[-1]:
        raise ValueError(f"middle column {left[-1]} is not its own reversed complement")
    full = (1 << (m * n)) - 1
    return Board(m, n, half | ((_reverse(half, m * n) ^ full) >> (k * m) << (k * m)))


def satisfies_complement_rule(board: Board) -> bool:
    """True iff cell (i, j) = 1 - cell (m-1-i, n-1-j) everywhere."""
    return board.bits ^ _reverse(board.bits, board.m * board.n) == board.full


def component_counts(board: Board) -> tuple[int, int]:
    """Number of 4-adjacent connected components of each label, (zeros, ones)."""
    m, size = board.m, board.m * board.n
    labels = [(board.bits >> p) & 1 for p in range(size)]
    seen = [False] * size
    counts = [0, 0]
    for start in range(size):
        if seen[start]:
            continue
        label = labels[start]
        counts[label] += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            p = queue.popleft()
            i = p % m
            # cell p's neighbours: up and down in its column, left and right columns
            for q, inside in ((p - 1, i > 0), (p + 1, i < m - 1), (p - m, p >= m), (p + m, p + m < size)):
                if inside and not seen[q] and labels[q] == label:
                    seen[q] = True
                    queue.append(q)
    return counts[0], counts[1]


def is_graham(board: Board) -> bool:
    """True iff the complement rule holds and each label is one component."""
    return satisfies_complement_rule(board) and component_counts(board) == (1, 1)


def transform(board: Board, op: str) -> Board:
    """Apply one of hflip / vflip / rot180 / complement.

    All four map valid boards to valid boards; rot180 equals complement on
    them, which is just the complement rule restated.
    """
    m, n, bits = board.m, board.n, board.bits
    if op == "complement":
        return Board(m, n, bits ^ board.full)
    if op == "rot180":
        return Board(m, n, _reverse(bits, m * n))
    if op in ("hflip", "vflip"):
        hflip = 0
        for j, col in enumerate(board.columns()):
            hflip |= col << ((n - 1 - j) * m)
        # vflip = rot180 o hflip
        return Board(m, n, hflip if op == "hflip" else _reverse(hflip, m * n))
    raise ValueError(f"unknown transform {op!r}; expected one of {BOARD_TRANSFORMS}")


def is_canonical(board: Board) -> bool:
    """True iff the board is Graham and satisfies the two stipulations.

    Stipulations: the left half of the bottom row is all zeros, and column 0
    has at least as many zeros as ones.  They select the representative
    counted by the width-indexed sequence.  Derivation assumes m = 4; other
    row counts are accepted but flagged with a CanonicalConventionWarning.
    """
    m, n, bits = board.m, board.n, board.bits
    if m != 4:
        warnings.warn(
            f"canonical stipulations are validated for 4 rows, not m={m}",
            CanonicalConventionWarning,
            stacklevel=2,
        )
    bottom_left = sum(1 << (j * m + m - 1) for j in range((n + 1) // 2))
    if bits & bottom_left:
        return False
    if 2 * (bits & ((1 << m) - 1)).bit_count() > m:
        return False
    return is_graham(board)
