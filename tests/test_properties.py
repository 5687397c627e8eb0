"""Property suites over randomized boards, columns and series."""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridcuts import oracle
from gridcuts.board import (
    Board,
    ColumnPattern,
    complete_board,
    component_counts,
    is_graham,
    is_self_revcomp,
    revcomp,
    satisfies_complement_rule,
    transform,
)
from gridcuts.asymptotics import isolate_real_roots
from gridcuts.series import Polynomial, rational_function, series_terms, series_terms_longdiv
from gridcuts.verify import _union_find_component_counts


columns = st.integers(2, 6).flatmap(
    lambda m: st.tuples(*([st.integers(0, 1)] * m)).map(ColumnPattern)
)


def boards(max_m=6, max_n=8):
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.tuples(*([st.integers(0, 1)] * n)), min_size=m, max_size=m
            ).map(lambda rows: Board(tuple(rows)))
        )
    )


def left_halves(m, max_cols=5):
    col = st.integers(0, (1 << m) - 1).map(lambda v: ColumnPattern.decode(m, v))
    return st.lists(col, min_size=1, max_size=max_cols)


class TestColumnProperties:
    @given(columns)
    def test_revcomp_involution(self, col):
        assert revcomp(revcomp(col)) == col

    @given(columns)
    def test_revcomp_preserves_weight_complementarily(self, col):
        assert sum(revcomp(col).bits) == col.m - sum(col.bits)

    @given(columns)
    def test_self_revcomp_iff_fixed(self, col):
        assert is_self_revcomp(col) == (revcomp(col) == col)


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
    def test_round_trip_even_width(self, left):
        board = complete_board(left, 2 * len(left))
        assert satisfies_complement_rule(board)
        assert board.left_half() == tuple(left)

    @given(st.integers(2, 5).flatmap(left_halves))
    def test_round_trip_odd_width(self, left):
        if not is_self_revcomp(left[-1]):
            left = list(left[:-1]) + [ColumnPattern((1,) * (left[0].m // 2) + (0,) * ((left[0].m + 1) // 2))]
        if not is_self_revcomp(left[-1]):
            return  # odd row count has no middle columns
        board = complete_board(left, 2 * len(left) - 1)
        assert satisfies_complement_rule(board)
        assert board.left_half() == tuple(left)

    @given(st.integers(2, 5).flatmap(left_halves))
    def test_completion_is_graham_iff_flood_fill_agrees(self, left):
        board = complete_board(left, 2 * len(left))
        assert is_graham(board) == (component_counts(board) == (1, 1))


@st.composite
def sieve_boards(draw):
    """Boards of 4..24 cells; half of them satisfy the complement rule off the middle."""
    m, n = draw(st.sampled_from(
        [(m, n) for m in range(1, 7) for n in range(1, 25) if 4 <= m * n <= 24]
    ))
    board = oracle.board_from_int(m, n, draw(st.integers(0, (1 << (m * n)) - 1)))
    if draw(st.booleans()):
        cols = list(board.columns())
        for j in range(n // 2):
            cols[n - 1 - j] = revcomp(cols[j])
        board = Board.from_columns(cols)
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
        bits = np.array([oracle.board_to_int(board)], dtype=np.uint64)
        cells = oracle._sieve_cells(m, n, range(n))
        flagged = bool(oracle._isolated(bits, cells, m, *oracle._row_masks(m, n))[0])
        assert flagged == lone
        if flagged:
            assert not is_graham(board)


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(Polynomial)


class TestSeriesProperties:
    @given(small_polys, small_polys)
    def test_divmod_invariant(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(small_polys, small_polys)
    def test_gcd_divides_both(self, a, b):
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert divmod(a, g)[1].is_zero()
        assert divmod(b, g)[1].is_zero()

    @given(small_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_series_recurrence_matches_long_division(self, num, den_tail):
        den = Polynomial([1] + den_tail)
        gf = rational_function(num, den)
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
