import hashlib
import itertools
import json
import operator
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridcuts import oracle
from gridcuts.board import (
    Board,
    CanonicalConventionWarning,
    complete_board,
    is_canonical,
    is_graham,
)
from gridcuts.oracle import BudgetError
from gridcuts.reference import GALLERY_4X6, REFERENCE_TERMS


class TestBoardIntPacking:
    def test_round_trip(self):
        # the sweep's integers are Board bits: cell (i, j) at bit j*m + i
        canonical = oracle.sweep(4, 6).canonical
        for board in GALLERY_4X6:
            assert Board(4, 6, board.bits) == board
            assert board.bits in canonical


class TestEnumerateCanonical:
    def test_width_one_single_board(self):
        boards = oracle.enumerate_canonical(4, 1)
        assert len(boards) == 1
        assert boards[0].cells == ((1,), (1,), (0,), (0,))

    def test_width_zero_empty(self):
        assert oracle.enumerate_canonical(4, 0) == []

    def test_width_six_has_54_boards_including_gallery(self):
        boards = oracle.enumerate_canonical(4, 6)
        assert len(boards) == 54
        assert len(set(boards)) == 54
        for board in GALLERY_4X6:
            assert board in boards

    def test_sorted_by_cell_array(self):
        boards = oracle.enumerate_canonical(4, 5)
        assert [b.cells for b in boards] == sorted(b.cells for b in boards)

    def test_all_enumerated_boards_are_canonical(self):
        for n in (2, 3, 4, 5):
            for board in oracle.enumerate_canonical(4, n):
                assert is_canonical(board)

    def test_non_four_rows_rejected(self):
        with pytest.raises(ValueError):
            oracle.enumerate_canonical(3, 6)


class TestCountReport:
    def test_4x2(self):
        report = oracle.count_report(4, 2)
        assert (report.canonical, report.cuts, report.orbits) == (3, 4, 3)

    def test_4x3(self):
        report = oracle.count_report(4, 3)
        assert (report.canonical, report.cuts, report.orbits) == (5, 9, 5)

    def test_3x3_odd_cell_count(self):
        report = oracle.count_report(3, 3)
        assert (report.canonical, report.cuts, report.orbits) == (0, 0, 0)

    def test_reference_terms_up_to_nine(self):
        for n in range(1, 10):
            assert oracle.count_report(4, n).canonical == REFERENCE_TERMS[n - 1]

    def test_one_row_strip(self):
        for k in (1, 2, 3, 4):
            assert oracle.count_report(1, 2 * k).cuts == 1
            assert oracle.count_report(1, 2 * k - 1).cuts == 0

    def test_orbit_bounds(self):
        for n in range(1, 8):
            report = oracle.count_report(4, n)
            if report.cuts:
                assert report.orbits <= report.cuts <= 2 * report.orbits

    def test_canonical_flagged_for_other_row_counts(self):
        assert not oracle.count_report(3, 4).canonical_validated
        assert oracle.count_report(4, 4).canonical_validated

    def test_frozen_convention_tables(self):
        # regression pins; cuts re-derived by the general machine's gf and
        # orbits by the Burnside check below
        cuts = [1, 4, 9, 22, 39, 90, 151, 340, 553, 1228, 1961, 4314]
        orbits = [1, 3, 5, 12, 20, 46, 76, 171, 277, 615, 981, 2158]
        for n in range(1, 13):
            report = oracle.count_report(4, n)
            assert report.cuts == cuts[n - 1]
            assert report.orbits == orbits[n - 1]

    def test_two_row_strip_has_n_cuts(self):
        for n in range(1, 13):
            assert oracle.count_report(2, n).cuts == n

    def test_height_seven_matches_the_general_machine(self):
        # past the CLI's machine heights: the general m = 7 machine, through _build
        from gridcuts.automaton import _build
        from gridcuts.series import generating_function, series_terms

        alphabet = tuple(range(1 << 7))
        terms = series_terms(generating_function(_build(7, "general", alphabet, alphabet, 2)), 8)
        assert [oracle.count_report(7, n).cuts for n in range(1, 9)] == terms
        assert not oracle.count_report(7, 8).canonical_validated

    def test_transpose_symmetric(self):
        # the transpose commutes with the half-turn, so it maps cuts onto cuts;
        # it maps the reflection onto the row flip, which on a cut is the
        # reflection complemented, so orbits match too; canonical is observed
        pairs = [(m, n) for n in range(2, 65) for m in range(1, n)
                 if max(m * ((n + 1) // 2), n * ((m + 1) // 2)) <= 24 and m * n <= 64]
        assert len(pairs) == 67
        for m, n in pairs:
            wide, tall = oracle.count_report(m, n), oracle.count_report(n, m)
            assert (wide.canonical, wide.cuts, wide.orbits) == (tall.canonical, tall.cuts, tall.orbits), (m, n)

    def test_orbits_match_burnside(self):
        # independent formula: orbits = (cuts + cuts fixed by reflection) / 2
        from gridcuts.board import transform

        for n in (2, 3, 4, 5, 6):
            result = oracle.sweep(4, n)
            comp = (1 << (4 * n)) - 1
            cuts = {min(b, b ^ comp) for b in result.graham}
            fixed = 0
            for rep in cuts:
                flipped = transform(Board(4, n, rep), "hflip").bits
                if min(flipped, flipped ^ comp) == rep:
                    fixed += 1
            assert oracle.count_report(4, n).orbits == (len(cuts) + fixed) // 2

    def test_budget_error_is_raised_before_sweeping(self):
        with pytest.raises(BudgetError):
            oracle.count_report(4, 9, budget=1 << 10)

    def test_elapsed_ms_times_this_call(self, monkeypatch):
        oracle.count_report(4, 5)
        ticks = itertools.count()
        monkeypatch.setattr(oracle.time, "perf_counter", lambda: next(ticks) * 0.25)
        # a cache hit reads the clock twice: this call's start and end only
        assert oracle.count_report(4, 5).elapsed_ms == 250.0
        # the sweep is part of this call's work: let it take two ticks
        real_sweeps = oracle._sweeps

        def slow_sweeps(*args, **kwargs):
            next(ticks), next(ticks)
            return real_sweeps(*args, **kwargs)

        monkeypatch.setattr(oracle, "_sweeps", slow_sweeps)
        assert oracle.count_report(4, 5).elapsed_ms == 750.0

    def test_json_shape(self):
        data = oracle.count_report(4, 2).to_json_dict()
        assert set(data) == {"m", "n", "canonical", "cuts", "orbits", "elapsed_ms"}
        assert oracle.count_report(4, 2).to_json_dict(timings=False).keys() == {
            "m", "n", "canonical", "cuts", "orbits",
        }


def same_sweep(a, b):
    """Whether two SweepResults hold the same shape, orbit count and boards."""
    return (a.m, a.n, a.orbits, a.graham) == (b.m, b.n, b.orbits, b.graham)


def record_shapes(monkeypatch, name):
    """Wrap oracle.<name> to record the shape of every array it is passed."""
    shapes = []
    real = getattr(oracle, name)

    def recording(bits, *args):
        shapes.append(bits.shape)
        return real(bits, *args)

    monkeypatch.setattr(oracle, name, recording)
    return shapes


class TestSweepAgainstPurePython:
    """The numpy sweep must agree with the plain flood-fill path."""

    # (1, 2) and (2, 1) have one-cell labels, which the isolated-cell sieve must skip
    @pytest.mark.parametrize("m,n", [
        (1, 2), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 5), (2, 6), (3, 2),
        (3, 4), (4, 3), (4, 4), (4, 5), (5, 2), (6, 2), (6, 3),
    ])
    def test_counts_match(self, m, n):
        from itertools import product

        graham, canonical = [], []
        k = (n + 1) // 2
        for left in product(range(1 << m), repeat=k):
            try:
                board = complete_board(m, n, left)
            except ValueError:
                continue
            if is_graham(board):
                graham.append(board.bits)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CanonicalConventionWarning)
                    if is_canonical(board):
                        canonical.append(board.bits)
        result = oracle.sweep(m, n)
        assert result.graham == tuple(sorted(graham))
        assert result.canonical == tuple(sorted(canonical))

    def test_every_swept_board_is_graham(self):
        for value in oracle.sweep(4, 5).graham:
            assert is_graham(Board(4, 5, value))

    @pytest.mark.parametrize("m", [16, 18])
    def test_first_column_is_sliced(self, m, monkeypatch):
        # a one-column left half has 2^(m-1) even first columns to sweep; none
        # of its cells has four fixed neighbours, so they skip the isolated-cell
        # sieve and reach the Euler test in slices
        sieved = record_shapes(monkeypatch, "_isolated")
        scored = record_shapes(monkeypatch, "_edges_minus_squares")
        list(oracle._euler_blocks(m, [2]))
        assert sieved == []
        assert max(size for (size,) in scored) <= oracle._CHUNK
        assert sum(size for (size,) in scored) == 1 << (m - 1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_one_column_left_halves_never_call_the_sieve(self, m, monkeypatch):
        # the sieve's cell mask is empty for n <= 2, so the call is skipped
        oracle._sweep_cache.cache_clear()
        sieved = record_shapes(monkeypatch, "_isolated")
        assert len(oracle.sweep(m, 1).graham) == 2 * (m % 2 == 0)
        assert len(oracle.sweep(m, 2).graham) == 2 * m
        assert sieved == []

    # (8, 4) has 256 boundary columns in its second column, so tiles split them;
    # at 3 x 1..10 widths 10 and 8, and 9 and 7, share a hi table and lo tiles
    @pytest.mark.parametrize("m,n", [(4, 8), (5, 6), (6, 6), (6, 7), (8, 4),
                                     pytest.param(3, tuple(range(1, 11)), id="3-1..10")])
    def test_join_tiles_are_chunked(self, m, n, monkeypatch):
        widths = n if isinstance(n, tuple) else (n,)
        expected = []
        for width in widths:
            oracle._sweep_cache.cache_clear()
            expected.append(oracle.sweep(m, width))
        oracle._sweep_cache.cache_clear()
        monkeypatch.setattr(oracle, "_CHUNK", 64)
        scored = record_shapes(monkeypatch, "_edges_minus_squares")
        oracle.count_reports(m, widths)
        assert all(same_sweep(oracle.sweep(m, width), alone) for width, alone in zip(widths, expected))
        # the join scores its (entry, boundary column) queries as 2-D tiles
        tiles = [shape[0] * shape[1] for shape in scored if len(shape) == 2]
        assert tiles and max(tiles) <= 64

    def test_tall_strips(self):
        # the transposes of the 2 x m strip, which has m cuts, and of the 1 x 32 strip
        for m in range(15, 19):
            assert len(oracle.sweep(m, 2).graham) == 2 * m
        # a middle column is fixed by its top half: two slices of 16-bit top halves
        assert len(oracle.sweep(32, 1, budget=1 << 32).graham) == 2

    def test_budget_compares_exponents(self):
        # 2^(4*5e19) candidates: the check must not build that integer
        with pytest.raises(BudgetError, match=r"2\^200000000000000000000 candidates"):
            oracle.check_shape(4, 10**20 - 1)
        oracle.check_shape(4, 8, budget=1 << 16)  # exactly at the budget
        with pytest.raises(BudgetError):
            oracle.check_shape(4, 8, budget=(1 << 16) - 1)
        with pytest.raises(BudgetError):
            oracle.check_shape(1, 1, budget=-5)

    def test_too_many_cells_rejected(self):
        with pytest.raises(ValueError, match="64"):
            oracle.sweep(6, 11, budget=1 << 40)
        # a board of width 0 has no cell, but its height is still one column word
        with pytest.raises(ValueError, match="64"):
            oracle.count_report(65, 0)
        assert oracle.count_report(64, 0).cuts == 0


# SHA-256 of ",".join(map(str, sweep(m, n).graham)), computed with a sweep
# that flood-filled every candidate: (4, 10), (4, 11) and (6, 7) with the one
# that filtered all 2^(m*ceil(n/2)) left halves, (4, 12) with the last one
# before the isolated-cell sieve
GRAHAM_SHA256 = {
    (4, 10): "00d6b95831191db401add121d1a04dbad4f1fd94a2ac46ad212d2623309b3aa2",
    (4, 11): "13a274ba179b39b9113ab67e9a449889f3573403cce709f75e7965027526ba73",
    (4, 12): "d09b768f089247909c3d2c8ec7f47fe288f7a9d2b8321c6d811b4bdbdc300ab0",
    (6, 7): "90188fd5609f4865ed60b47e1ea0ee22d05dfce3353985e20af810e2fa9451ca",
}


class TestFullSweepAnswers:
    @pytest.mark.parametrize("shape", sorted(GRAHAM_SHA256))
    def test_graham_digest(self, shape):
        graham = oracle.sweep(*shape).graham
        assert hashlib.sha256(",".join(map(str, graham)).encode()).hexdigest() == GRAHAM_SHA256[shape]

    def test_4x13_cuts_match_the_general_series(self):
        from gridcuts.automaton import build_general
        from gridcuts.series import generating_function, series_terms

        term = series_terms(generating_function(build_general(4)), 13)[12]
        assert term == 6807
        assert oracle.count_report(4, 13).cuts == term


def sorted_orbit_count(result):
    """Orbits of the cuts under horizontal reflection, by distinct keys.

    A test-local reference that shares nothing with the sweep's Burnside
    count: each board's key is the least of itself, its complement, its
    column reversal and that reversal's complement, and the orbits are the
    distinct keys.
    """
    u = np.uint64
    m, n, boards = result.m, result.n, np.array(result.graham, dtype=np.uint64)
    comp = u((1 << (m * n)) - 1)
    flipped = np.zeros_like(boards)
    for j in range(n):
        flipped |= ((boards >> u(j * m)) & u((1 << m) - 1)) << u((n - 1 - j) * m)
    keys = np.sort(np.minimum(np.minimum(boards, boards ^ comp), np.minimum(flipped, flipped ^ comp)))
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1 if keys.size else 0


class TestOrbitReference:
    def test_every_small_shape(self):
        # every shape with m*ceil(n/2) <= 22, m*n <= 64 and n >= 0 (164 shapes);
        # the digest was recorded with the sweep that counted orbits by sorted keys
        rows = []
        for m in range(1, 21):
            for n in range(0, 65):
                if m * ((n + 1) // 2) <= 22 and m * n <= 64:
                    result = oracle.sweep(m, n)
                    assert result.orbits == sorted_orbit_count(result), (m, n)
                    rows.append([m, n, len(result.graham) // 2, len(result.canonical), result.orbits])
        assert len(rows) == 164
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "2539c9c596aa91d5d077de6bca617032e4b4c6726f69a546fdb9f121e30f1d6f"


class TestSmallShapesDigest:
    def test_every_small_shape(self):
        # every shape with m*ceil(n/2) <= 20 and m*n <= 64 (132 shapes), recorded
        # with the sweep that tested the Euler number of every completed board
        digest = hashlib.sha256()
        for m in range(1, 21):
            for n in range(1, 65):
                if m * ((n + 1) // 2) <= 20 and m * n <= 64:
                    result = oracle.sweep(m, n)
                    graham, canonical = (",".join(map(str, boards)) for boards in (result.graham, result.canonical))
                    digest.update(f"{m}x{n}:{graham}:{canonical};".encode())
        assert digest.hexdigest() == "759e62974405787205135100e40b52eaabc98077c836352155df91407fb32a0e"


def count_components(bits, m, n, eight):
    """Element-wise number of 4- (or 8-) connected components of the set cells.

    A test-local vectorized flood fill: peel off the region of the lowest
    remaining cell until no cell remains.
    """
    u = np.uint64
    full = (1 << (m * n)) - 1
    top = sum(1 << (j * m) for j in range(n))
    not_top, not_bottom = full & ~top, full & ~(top << (m - 1))

    def spread(x):
        column = x | ((x & u(not_top)) >> u(1)) | ((x & u(not_bottom)) << u(1))
        across = column if eight else x
        return (column | (across >> u(m)) | (across << u(m))) & u(full)

    count = np.zeros(bits.size, dtype=np.int64)
    rest = bits.copy()
    while rest.any():
        region = rest & (~rest + u(1))
        count += region != 0
        while True:
            grown = spread(region) & rest
            if (grown == region).all():
                break
            region = grown
        rest &= ~region
    return count


def count_holes(bits, m, n):
    """Element-wise number of 8-connected components of 0-cells that do not
    touch the border: frame the board with 0-cells, count the 8-components
    of the framed 0-cells, and drop the one that holds the frame."""
    u = np.uint64
    framed = np.zeros_like(bits)
    for j in range(n):
        column = (bits >> u(j * m)) & u((1 << m) - 1)
        framed |= column << u((j + 1) * (m + 2) + 1)
    zeros = framed ^ u((1 << ((m + 2) * (n + 2))) - 1)
    return count_components(zeros, m + 2, n + 2, eight=True) - 1


def joined(q, t, m, target, not_bottom):
    """Every board the join builds from q and t, as one array."""
    pairs = oracle._join(q, t, m, target, not_bottom)
    return np.concatenate([np.zeros(0, dtype=np.uint64), *(q.boards[a] | t.boards[b] for a, b in pairs)])


def columns_or(m, n, columns):
    """Every OR of one partial board (a left-half column and its mirror) per column."""
    free = [m // 2 if 2 * j + 1 == n else m for j in columns]
    return oracle._outer_or([oracle._partial_boards(m, n, j, np.arange(1 << bits, dtype=np.uint64))
                             for j, bits in zip(columns, free)])


class TestEulerSieve:
    # every board of each shape (4 x 5, all 2^20 boards, also holds but takes 2 s)
    @pytest.mark.parametrize("m,n", [(1, 6), (3, 3), (4, 4), (3, 5), (2, 7), (5, 2)])
    def test_euler_number_is_components_minus_holes(self, m, n):
        bits = np.arange(1 << (m * n), dtype=np.uint64)
        not_bottom = oracle._row_masks(m, n)[1]
        euler = (np.bitwise_count(bits).astype(np.int64)
                 - oracle._edges_minus_squares(bits, m, not_bottom).astype(np.int64))
        expected = count_components(bits, m, n, eight=False) - count_holes(bits, m, n)
        assert np.array_equal(euler, expected)

    def test_holes_are_counted(self):
        # a ring of 8 ones round a 0 is one component with one hole: Euler number 0
        ring = Board.from_rows([[1, 1, 1], [1, 0, 1], [1, 1, 1]]).bits
        bits = np.array([ring], dtype=np.uint64)
        assert count_components(bits, 3, 3, eight=False)[0] == 1
        assert count_holes(bits, 3, 3)[0] == 1
        assert 8 - oracle._edges_minus_squares(bits, 3, oracle._row_masks(3, 3)[1])[0] == 0

    # every split of every shape with m*ceil(n/2) <= 12: even n, odd n with the
    # middle column in hi, and an empty hi (split = k - 1)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_split_adds_up(self, m):
        u = np.uint64
        for n in range(1, 12 // m * 2 + 1):
            k = (n + 1) // 2
            boards = columns_or(m, n, range(k))
            not_bottom = oracle._row_masks(m, n)[1]

            def score(bits):
                return oracle._edges_minus_squares(bits, m, not_bottom).astype(np.int64)

            for split in range(k):
                lo_mask = oracle._columns_mask(m, [c for j in range(split + 1) for c in (j, n - 1 - j)])
                c = boards & u(oracle._columns_mask(m, (split, n - 1 - split)))
                d = boards & u(oracle._columns_mask(m, (split + 1, n - 2 - split)) if split + 1 < k else 0)
                cross = score(c | d) - score(c) - score(d)
                lo, hi = boards & u(lo_mask), boards & ~u(lo_mask)
                assert np.array_equal(score(lo) + score(hi) + cross, score(boards)), (n, split)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_join_keeps_what_the_per_board_test_keeps(self, m):
        for n in range(3, 12 // m * 2 + 1):
            k = (n + 1) // 2
            not_bottom = oracle._row_masks(m, n)[1]
            target = m * n // 2 - 1

            def score(bits):
                return oracle._edges_minus_squares(bits, m, not_bottom)

            for split in range(k - 1):
                lo, hi = columns_or(m, n, range(split + 1)), columns_or(m, n, range(split + 1, k))
                boards = (lo[:, None] | hi[None, :]).ravel()
                expected = np.sort(boards[score(boards) == target])
                lo = oracle._half(lo, score(lo), m, split, n - 1 - split, target)
                hi = oracle._half(hi, score(hi), m, split + 1, n - 2 - split, target)
                for q, t in ((lo, hi), (hi, lo)):
                    assert np.array_equal(np.sort(joined(q, t, m, target, not_bottom)), expected), (n, split)

    @pytest.mark.parametrize("m,n,split", [(8, 4, 0), (4, 8, 0), (4, 8, 1), (4, 7, 1), (3, 10, 0), (3, 10, 2)])
    def test_join_on_dense_halves(self, m, n, split):
        # halves dense in 1s, so a query's wanted E - F is often below 0, where it
        # must find nothing.  The join reads a table's boundary column and its
        # mirror from one entry per boundary column, so in hi the mirror of each
        # column copies it; lo is arbitrary
        u = np.uint64
        rng = np.random.default_rng(m * n)
        k = (n + 1) // 2
        not_bottom = oracle._row_masks(m, n)[1]
        target = m * n // 2 - 1

        def dense_columns():
            # each cell 1 with probability 7/8
            x = rng.integers(0, 1 << m, size=(3, 400)).astype(u)
            return x[0] | x[1] | x[2]

        def half(columns, copy_mirror):
            bits = np.zeros(400, dtype=u)
            for j in columns:
                column = dense_columns()
                mirror = column if copy_mirror else dense_columns()
                bits |= (column << u(j * m)) | (mirror << u((n - 1 - j) * m))
            return bits

        lo, hi = half(range(split + 1), False), half(range(split + 1, k), True)
        boards = (lo[:, None] | hi[None, :]).ravel()
        expected = np.sort(boards[oracle._edges_minus_squares(boards, m, not_bottom) == target])
        score = oracle._edges_minus_squares
        lo = oracle._half(lo, score(lo, m, not_bottom), m, split, n - 1 - split, target)
        hi = oracle._half(hi, score(hi, m, not_bottom), m, split + 1, n - 2 - split, target)
        assert expected.size and np.array_equal(np.sort(joined(lo, hi, m, target, not_bottom)), expected)

    def test_sweep_flood_fills_once_per_range(self, monkeypatch):
        calls = []
        real = oracle._connected

        def counting(bits, *args):
            calls.append(bits.size)
            return real(bits, *args)

        monkeypatch.setattr(oracle, "_connected", counting)
        oracle._sweep_cache.cache_clear()
        oracle.sweep(4, 10)
        assert len(calls) == 1


def euler_survivors(m, n):
    return np.concatenate([np.zeros(0, dtype=np.uint64), *(boards for boards, _ in oracle._euler_blocks(m, [n]))])


class TestConnected:
    def test_border_flood_matches_component_count(self):
        # every shape with m*ceil(n/2) <= 16 and m*n <= 64 (100 shapes)
        verdicts = set()
        for m in range(1, 17):
            for n in range(1, 65):
                if m * ((n + 1) // 2) <= 16 and m * n <= 64:
                    survivors = euler_survivors(m, n)
                    connected = oracle._connected(survivors, m, n)
                    expected = count_components(survivors, m, n, eight=False) == 1
                    assert np.array_equal(connected, expected), (m, n)
                    verdicts.update(connected.tolist())
        assert verdicts == {False, True}

    def test_4x12_survivors(self):
        survivors = euler_survivors(4, 12)
        connected = oracle._connected(survivors, 4, 12)
        assert (survivors.size, int(np.count_nonzero(~connected))) == (6279, 1965)

    def test_precondition_is_asserted(self):
        # two 1-cells in opposite corners of a 2 x 2 board: Euler number 2
        with pytest.raises(AssertionError):
            oracle._connected(np.array([0b1001], dtype=np.uint64), 2, 2)


class TestRevcompColumns:
    @pytest.mark.parametrize("m", range(1, 65))
    def test_matches_string_reversal(self, m):
        full = (1 << m) - 1
        rng = np.random.default_rng(m)
        alternating = [0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 1, 1 << (m - 1)]
        random = rng.integers(0, 1 << 64, size=40, dtype=np.uint64).tolist()
        values = [0, full] + [v & full for v in alternating + random]
        got = oracle._revcomp_columns(np.array(values, dtype=np.uint64), m).tolist()
        assert got == [int(format(c, f"0{m}b")[::-1], 2) ^ full for c in values]


class TestPythonIntsAgainstUint64:
    # the oracle's masks and shift counts are plain Python ints; under NEP 50
    # (numpy >= 2.0) a Python int meets a uint64 array as a uint64
    values = np.array([0, 1, 0x5555555555555555, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    scalars = [0, 1, 0xAAAAAAAAAAAAAAAA, 1 << 63, (1 << 64) - 1]

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.xor])
    def test_bitwise_stays_uint64(self, op):
        for scalar in self.scalars:
            for got in (op(self.values, scalar), op(scalar, self.values)):
                assert got.dtype == np.uint64
                assert got.tolist() == [op(v, scalar) for v in self.values.tolist()]

    def test_shifts_stay_uint64(self):
        full = (1 << 64) - 1
        for shift in (0, 1, 40, 63, 64):  # a shift by the width gives 0, as _neighbours needs at m = 64
            left, right = self.values << shift, self.values >> shift
            assert left.dtype == right.dtype == np.uint64
            assert left.tolist() == [(v << shift) & full for v in self.values.tolist()]
            assert right.tolist() == [v >> shift for v in self.values.tolist()]

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.xor, operator.lshift, operator.rshift])
    def test_out_of_range_int_raises(self, op):
        # a negative mask would wrap to a huge one if it were cast; it raises instead
        for scalar in (-1, 1 << 64):
            with pytest.raises(OverflowError):
                op(self.values, scalar)


class TestSweepResult:
    def test_tuples_come_from_the_representatives(self):
        for n in (5, 6):
            result = oracle.sweep(4, n)
            full = (1 << (4 * n)) - 1
            reps = result.representatives.tolist()
            boards = reps + [b ^ full for b in reps]
            assert result.graham == tuple(sorted(boards))
            assert result.canonical == tuple(sorted(b for b in boards if is_canonical(Board(4, n, b))))

    def test_count_builds_no_tuples(self):
        oracle._sweep_cache.cache_clear()
        oracle.count_report(4, 8)
        # a count reads the representatives alone: no sorted tuple of boards
        built = {"graham", "canonical"} & vars(oracle.sweep(4, 8)).keys()
        assert not built

    def test_representatives_are_read_only(self):
        result = oracle.sweep(4, 6)
        assert not (result.representatives & np.uint64(1)).any()
        with pytest.raises(ValueError):
            result.representatives[0] = 0

    def test_equality_compares_the_boards(self):
        # same_sweep is what test_join_tiles_are_chunked compares sweeps with
        result = oracle.sweep(4, 6)
        reps = result.representatives
        same = oracle.SweepResult(4, 6, reps.copy(), result.orbits, result.canonical_count)
        assert same_sweep(same, result)
        assert not same_sweep(oracle.SweepResult(4, 6, reps[1:], result.orbits, result.canonical_count), result)
        assert not same_sweep(oracle.SweepResult(4, 6, reps, result.orbits + 1, result.canonical_count), result)
        # the boards are the representatives and their complements, so a
        # representative swapped for its complement gives the same sweep
        other = reps.copy()
        other[0] ^= np.uint64((1 << 24) - 1)
        assert same_sweep(oracle.SweepResult(4, 6, other, result.orbits, result.canonical_count), result)


@st.composite
def _height_and_widths(draw):
    """A height 1..6 and a list of its widths, in any order and with repeats,
    each within 2^20 candidates."""
    m = draw(st.integers(1, 6))
    widest = 2 * (20 // m)
    return m, draw(st.lists(st.integers(0, widest), min_size=1, max_size=6))


class TestQueryPass:
    """One pass floods, checks and counts the survivors of every width of a query."""

    @pytest.mark.parametrize("chunk", [oracle._CHUNK, 64])
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_height_and_widths())
    def test_batch_equals_the_sweeps_of_each_width(self, monkeypatch, chunk, query):
        # at _CHUNK = 64 the tiles split widths and hold parts of several
        m, widths = query
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        oracle._sweep_cache.cache_clear()
        reports = oracle.count_reports(m, widths)
        batch = [oracle.sweep(m, n) for n in widths]
        assert [r.n for r in reports] == [r.n for r in batch] == widths
        for n, report, result in zip(widths, reports, batch):
            oracle._sweep_cache.cache_clear()
            alone = oracle.sweep(m, n)
            assert same_sweep(result, alone)
            assert result.canonical_count == alone.canonical_count == len(alone.canonical)
            assert (report.canonical, report.cuts, report.orbits) == (
                alone.canonical_count, alone.representatives.size, alone.orbits)

    def test_each_shape_is_swept_once(self, monkeypatch):
        # the widths each enumeration pass receives
        enumerated = []
        real = oracle._euler_blocks

        def recording(m, widths):
            enumerated.append((m, list(widths)))
            return real(m, widths)

        monkeypatch.setattr(oracle, "_euler_blocks", recording)
        oracle._sweep_cache.cache_clear()
        reports = oracle.count_reports(4, range(1, 13))
        assert oracle._sweep_cache.cache_info() == (0, 12, 12)
        result = oracle.sweep(4, 12)
        assert oracle._sweep_cache.cache_info() == (1, 12, 12)
        assert result.representatives.size == reports[-1].cuts
        assert enumerated == [(4, list(range(1, 13)))]
        # and the reverse order: the batch sweeps only the widths the cache lacks
        enumerated.clear()
        oracle._sweep_cache.cache_clear()
        result = oracle.sweep(4, 12)
        oracle.count_reports(4, range(1, 13))
        assert oracle._sweep_cache.cache_info() == (1, 12, 12)
        assert oracle.sweep(4, 12) is result
        assert enumerated == [(4, [12]), (4, list(range(1, 12)))]
        # a repeated width is swept once and answered once more from the cache
        oracle._sweep_cache.cache_clear()
        oracle.count_reports(3, [4, 2, 4])
        assert oracle._sweep_cache.cache_info() == (1, 2, 2)

    @pytest.mark.parametrize("widths", [[1, 2, 9], [9, 1, 2], [2, 40]])
    def test_a_refused_width_stops_the_batch_before_any_sweep(self, widths):
        oracle._sweep_cache.cache_clear()
        with pytest.raises(BudgetError):
            oracle.count_reports(4, widths, budget=1 << 10)
        assert oracle._sweep_cache.cache_info() == (0, 0, 0)

    def test_every_row_carries_the_call_time(self, monkeypatch):
        oracle.count_reports(4, [5, 6])
        ticks = itertools.count()
        monkeypatch.setattr(oracle.time, "perf_counter", lambda: next(ticks) * 0.25)
        # a batch answered from the cache reads the clock twice, for the whole call
        assert [r.elapsed_ms for r in oracle.count_reports(4, [5, 6, 5])] == [250.0] * 3

    def test_the_flood_runs_once_per_tile(self, monkeypatch):
        calls = []
        real = oracle._connected

        def counting(bits, *args):
            calls.append(bits.size)
            return real(bits, *args)

        monkeypatch.setattr(oracle, "_connected", counting)
        oracle._sweep_cache.cache_clear()
        oracle.count_reports(4, range(1, 13))
        # 12234 survivors of 4 x 1..12 in two tiles, the first of _CHUNK boards.
        # Enumerating each width on its own left 11974: a shared hi table sieves
        # other cells of the narrower widths, and the sieve only rejects
        assert calls == [oracle._CHUNK, 12234 - oracle._CHUNK]

    def test_the_widths_of_a_parity_share_a_hi_table(self, monkeypatch):
        # a hi table is the one _half call with no widths; at 4 x 1..12 the even
        # widths 8, 10 and 12 share one and the odd widths 7, 9 and 11 another,
        # where each width of 8..12 builds its own when enumerated alone
        built = []
        real = oracle._half

        def recording(boards, score, m, col, mirror, target, width=None):
            built.append(width is None)
            return real(boards, score, m, col, mirror, target, width)

        monkeypatch.setattr(oracle, "_half", recording)
        oracle._sweep_cache.cache_clear()
        batch = oracle.count_reports(4, range(1, 13))
        assert sum(built) == 2
        built.clear()
        alone = []
        for n in range(1, 13):
            oracle._sweep_cache.cache_clear()
            alone += oracle.count_reports(4, [n])
        assert sum(built) == 5
        assert [(r.canonical, r.cuts, r.orbits) for r in batch] == [(r.canonical, r.cuts, r.orbits) for r in alone]


class TestDelahaye:
    def test_formula_values(self):
        assert [oracle.delahaye_formula(n) for n in range(1, 7)] == [2, 5, 12, 27, 58, 121]

    def test_report_records_all_conventions(self):
        (report,) = oracle.delahaye_reports([3])
        assert report["formula"] == 12
        assert report["cuts"] == 23
        assert report["orbits"] == 12
        assert report["canonical"] == 12
        assert not report["formula_matches_cuts"]
        assert report["formula_matches_orbits"]

    def test_formula_matches_orbits_for_all_small_widths(self):
        reports = oracle.delahaye_reports(range(1, 7))
        assert [report["n"] for report in reports] == list(range(1, 7))
        for report in reports:
            assert report["formula_matches_orbits"], report

    def test_half_widths_are_swept_in_one_pass(self, monkeypatch):
        passes = []
        real = oracle._sweep_widths

        def recording(m, widths):
            passes.append((m, list(widths)))
            return real(m, widths)

        monkeypatch.setattr(oracle, "_sweep_widths", recording)
        oracle._sweep_cache.cache_clear()
        oracle.delahaye_reports(range(1, 7))
        assert passes == [(3, [2, 4, 6, 8, 10, 12])]

    def test_out_of_range(self):
        oracle._sweep_cache.cache_clear()
        with pytest.raises(ValueError):
            oracle.delahaye_reports([1, 7])
        # refused before the sweep of any half-width
        assert oracle._sweep_cache.cache_info() == (0, 0, 0)


class TestFigures:
    def test_regenerate(self):
        galleries = oracle.regenerate_figures()
        assert len(galleries["three_by_six"]) == 12
        assert len(galleries["four_by_six"]) == 12
        for board in galleries["three_by_six"] + galleries["four_by_six"]:
            from gridcuts.board import component_counts

            assert component_counts(board) == (1, 1)

    def test_mismatch_reports_offender(self, monkeypatch):
        from gridcuts import reference

        tampered = list(reference.GALLERY_4X6)
        tampered[0] = Board.from_rows([[0, 1] * 3] * 4)
        monkeypatch.setattr(reference, "GALLERY_4X6", tuple(tampered))
        with pytest.raises(oracle.FigureMismatch) as exc:
            oracle.regenerate_figures()
        assert "gallery board 0" in str(exc.value)

    def test_bottom_row_stipulation_reports_offender(self, monkeypatch):
        from gridcuts import reference
        from gridcuts.board import transform

        # the complement of a valid cut is a valid cut, with 1s along the bottom row
        tampered = list(reference.GALLERY_3X6)
        tampered[0] = transform(tampered[0], "complement")
        assert is_graham(tampered[0])
        monkeypatch.setattr(reference, "GALLERY_3X6", tuple(tampered))
        with pytest.raises(oracle.FigureMismatch, match="^3x6 gallery board 0 violates the bottom-row stipulation:"):
            oracle.regenerate_figures()
