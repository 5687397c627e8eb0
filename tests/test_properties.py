"""Property suites over randomized boards, columns and series."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridcuts import oracle
from gridcuts.automaton import column_bits
from gridcuts.board import (
    BOARD_TRANSFORMS,
    Board,
    complete_board,
    component_counts,
    is_graham,
    revcomp,
    satisfies_complement_rule,
    transform,
)
from gridcuts.asymptotics import _root_bound
from gridcuts.series import Polynomial, RationalFunction, series_terms
from gridcuts.verify import _union_find_component_counts
from test_asymptotics import isolate_real_roots, smallest_positive_root
from test_series import psub, series_terms_longdiv


# (m, column) with the column as an m-bit integer
columns = st.integers(2, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
)


def grids(max_m=6, max_n=8):
    """Row-major 0/1 tuple grids."""
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.tuples(*[st.tuples(*([st.integers(0, 1)] * n))] * m)
        )
    )


def boards(max_m=6, max_n=8):
    return grids(max_m, max_n).map(Board.from_rows)


def left_halves(m, max_cols=5):
    """(m, left half) with the columns as m-bit integers."""
    return st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=max_cols))


def is_middle(m, column):
    """A one-column board obeys the rule iff its column is its own reversed complement."""
    return satisfies_complement_rule(Board(m, 1, column))


class TestColumnProperties:
    @given(columns)
    def test_revcomp_involution(self, m_col):
        m, col = m_col
        assert revcomp(m, revcomp(m, col)) == col

    @given(columns)
    def test_revcomp_preserves_weight_complementarily(self, m_col):
        m, col = m_col
        assert sum(column_bits(m, revcomp(m, col))) == m - sum(column_bits(m, col))

    @given(columns)
    def test_self_revcomp_iff_fixed(self, m_col):
        m, col = m_col
        bits = column_bits(m, col)
        mirrored_rows_differ = all(bits[i] != bits[-1 - i] for i in range(m))
        assert (revcomp(m, col) == col) == mirrored_rows_differ


class TestBoardProperties:
    @given(boards())
    def test_transforms_are_involutions(self, board):
        for op in ("hflip", "vflip", "rot180", "complement"):
            assert transform(transform(board, op), op) == board

    @given(boards())
    def test_vflip_is_hflip_then_rot180(self, board):
        assert transform(board, "vflip") == transform(transform(board, "hflip"), "rot180")

    @given(boards())
    def test_flood_fill_matches_union_find(self, board):
        assert component_counts(board) == _union_find_component_counts(board)

    @given(boards())
    def test_component_counts_cover_all_cells(self, board):
        zeros, ones = component_counts(board)
        assert zeros + ones >= 1
        assert (zeros == 0) == all(c for row in board.cells for c in row)

    @given(boards(max_m=4, max_n=6))
    def test_rule_boards_satisfy_complement_identity(self, board):
        if satisfies_complement_rule(board):
            assert transform(board, "rot180") == transform(board, "complement")

    @given(boards(max_m=5, max_n=6))
    def test_graham_implies_even_cell_count(self, board):
        if is_graham(board):
            assert (board.m * board.n) % 2 == 0


class TestCompletionProperties:
    @given(st.integers(2, 5).flatmap(left_halves))
    def test_round_trip_even_width(self, m_left):
        m, left = m_left
        board = complete_board(m, 2 * len(left), left)
        assert satisfies_complement_rule(board)
        assert board.left_half() == tuple(left)

    @given(st.integers(2, 5).flatmap(left_halves))
    def test_round_trip_odd_width(self, m_left):
        m, left = m_left
        if not is_middle(m, left[-1]):
            left = left[:-1] + [(1 << (m // 2)) - 1]  # top half 1s, bottom half 0s
        if not is_middle(m, left[-1]):
            return  # odd row count has no middle columns
        board = complete_board(m, 2 * len(left) - 1, left)
        assert satisfies_complement_rule(board)
        assert board.left_half() == tuple(left)

    @given(st.integers(2, 5).flatmap(left_halves))
    def test_completion_is_graham_iff_flood_fill_agrees(self, m_left):
        m, left = m_left
        board = complete_board(m, 2 * len(left), left)
        assert is_graham(board) == (component_counts(board) == (1, 1))


# -- the tuple-grid board operations the bitboard replaced, as a reference ----


def grid_columns(grid):
    return tuple(tuple(row[j] for row in grid) for j in range(len(grid[0])))


def grid_from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def grid_revcomp(col):
    return tuple(1 - b for b in reversed(col))


def grid_transform(grid, op):
    if op == "hflip":
        return tuple(tuple(reversed(row)) for row in grid)
    if op == "vflip":
        return tuple(reversed(grid))
    if op == "rot180":
        return grid_transform(grid_transform(grid, "hflip"), "vflip")
    assert op == "complement"
    return tuple(tuple(1 - c for c in row) for row in grid)


def grid_complete(left, n):
    right = [grid_revcomp(left[j]) for j in range(n // 2)]
    return grid_from_columns(tuple(left) + tuple(reversed(right)))


def grid_rule(grid):
    m, n = len(grid), len(grid[0])
    return all(grid[i][j] == 1 - grid[m - 1 - i][n - 1 - j] for i in range(m) for j in range(n))


def pack_column(col):
    return sum(b << i for i, b in enumerate(col))


@st.composite
def rule_grids(draw):
    """Left halves completed by the reference; the odd middle column is free,
    so about half the odd-width grids break the rule."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    column = st.tuples(*([st.integers(0, 1)] * m))
    left = draw(st.lists(column, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    return m, n, left


class TestBitboardMatchesTupleGrid:
    @given(grids())
    def test_packing(self, grid):
        m = len(grid)
        expected = sum(c << (j * m + i) for i, row in enumerate(grid) for j, c in enumerate(row))
        assert Board.from_rows(grid).bits == expected

    @given(grids())
    def test_cells_and_columns(self, grid):
        board = Board.from_rows(grid)
        assert board.cells == grid
        assert board.columns() == tuple(pack_column(col) for col in grid_columns(grid))

    @given(grids(), st.sampled_from(BOARD_TRANSFORMS))
    def test_transform(self, grid, op):
        assert transform(Board.from_rows(grid), op).cells == grid_transform(grid, op)

    @given(rule_grids())
    def test_complete_board(self, shape):
        m, n, left = shape
        if n % 2 and grid_revcomp(left[-1]) != left[-1]:
            with pytest.raises(ValueError):
                complete_board(m, n, [pack_column(col) for col in left])
            return
        board = complete_board(m, n, [pack_column(col) for col in left])
        assert board.cells == grid_complete(left, n)

    @given(rule_grids())
    def test_complement_rule(self, shape):
        m, n, left = shape
        # the reference completion, middle column included whatever it is
        grid = grid_from_columns(tuple(left) + tuple(reversed([grid_revcomp(c) for c in left[: n // 2]])))
        assert satisfies_complement_rule(Board.from_rows(grid)) == grid_rule(grid)

    @given(grids())
    def test_complement_rule_on_any_grid(self, grid):
        assert satisfies_complement_rule(Board.from_rows(grid)) == grid_rule(grid)


@st.composite
def sieve_boards(draw):
    """Boards of 4..24 cells; half of them satisfy the complement rule off the middle."""
    m, n = draw(st.sampled_from(
        [(m, n) for m in range(1, 7) for n in range(1, 25) if 4 <= m * n <= 24]
    ))
    board = Board(m, n, draw(st.integers(0, (1 << (m * n)) - 1)))
    if draw(st.booleans()):
        cols = list(grid_columns(board.cells))
        for j in range(n // 2):
            cols[n - 1 - j] = grid_revcomp(cols[j])
        board = Board.from_rows(grid_from_columns(cols))
    return board


class TestIsolatedCellSieve:
    @given(sieve_boards())
    def test_flags_exactly_lone_ones_and_only_non_cuts(self, board):
        m, n = board.m, board.n
        grid = board.cells
        lone = any(
            grid[i][j] and not any(
                0 <= a < m and 0 <= b < n and grid[a][b]
                for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            )
            for i in range(m) for j in range(n)
        )
        bits = np.array([board.bits], dtype=np.uint64)
        cells = oracle._columns_mask(m, range(n))
        flagged = bool(oracle._isolated(bits, cells, m, *oracle._row_masks(m, n))[0])
        assert flagged == lone
        if flagged:
            assert not is_graham(board)


@functools.cache
def graham_boards(m, n):
    """Every board of the shape that is_graham accepts, by completing each left half."""
    found = []
    for left in itertools.product(range(1 << m), repeat=(n + 1) // 2):
        try:
            board = complete_board(m, n, left)
        except ValueError:
            continue
        if is_graham(board):
            found.append(board)
    return found


GRAHAM_SHAPES = [
    (m, n) for m in range(1, 7) for n in range(1, 13)
    if m * ((n + 1) // 2) <= 10 and m * n % 2 == 0
]


class TestEulerSieve:
    @given(st.sampled_from(GRAHAM_SHAPES).flatmap(lambda s: st.sampled_from(graham_boards(*s))))
    def test_every_cut_passes(self, board):
        m, n = board.m, board.n
        not_bottom = oracle._row_masks(m, n)[1]
        bits = np.array([board.bits], dtype=np.uint64)
        assert board.bits.bit_count() == m * n // 2
        # V - E + F = 1: one 4-component and no hole
        assert oracle._edges_minus_squares(bits, m, not_bottom)[0] == m * n // 2 - 1


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(Polynomial)


class TestSeriesProperties:
    @given(small_polys, small_polys)
    def test_divmod_invariant(self, a, b):
        if b.is_zero():
            return
        # |lc(b)|^(d+1) a = q b + r with an integer q and deg r < deg b
        r = a.pseudo_remainder(b)
        scale = abs(b.leading()) ** max(a.degree - b.degree + 1, 0)
        psub(a * scale, r).divexact(b)
        assert r.is_zero() or r.degree < b.degree

    @given(small_polys, small_polys)
    def test_gcd_divides_both(self, a, b):
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert g == g.primitive() and g.leading() > 0
        a.divexact(g)  # a primitive divisor over the rationals divides over the integers
        b.divexact(g)

    @given(small_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_series_recurrence_matches_long_division(self, num, den_tail):
        den = Polynomial([1] + den_tail)
        gf = RationalFunction(num, den)
        if gf.denominator.constant() == 0:
            return
        long_div = series_terms_longdiv(gf, 25)
        if any(c.denominator != 1 for c in long_div):
            return
        assert [Fraction(c) for c in series_terms(gf, 25)] == long_div

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
    def test_root_isolation_finds_sign_changes(self, coeffs):
        p = Polynomial(coeffs)
        if p.degree < 1:
            return
        intervals = isolate_real_roots(p)
        sqf = p.divexact(p.gcd(p.derivative()))
        for lo, hi in intervals:
            assert sqf(lo) == 0 or sqf(hi) == 0 or (sqf(lo) > 0) != (sqf(hi) > 0)
        for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
            assert ahi < blo

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=7), st.integers(-9, 9).filter(bool))
    def test_smallest_positive_root_is_the_first_isolated_one(self, tail, constant):
        p = Polynomial([constant] + tail)
        if p.degree < 1 or p.gcd(p.derivative()).degree > 0:
            return  # the search takes squarefree polynomials only
        positive = isolate_real_roots(p, (Fraction(0), _root_bound(p)), Fraction(1, 10**30))
        assert smallest_positive_root(p) == (positive[0] if positive else None)
