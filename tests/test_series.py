import json
import sys
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridcuts import automaton, oracle
from gridcuts.automaton import TransferMatrix, build_canonical, build_general, transfer_matrix
from gridcuts.reference import (
    REFERENCE_GF_DENOMINATOR_FACTORS,
    REFERENCE_GF_NUMERATOR_FACTORS,
    REFERENCE_TERMS,
    RESOLVENT_LCM_FACTORS,
)
from gridcuts.series import (
    InexactError,
    Polynomial,
    RationalFunction,
    _certified_gf,
    _stripped_taps,
    certified_series,
    generating_function,
    lumped,
    product,
    recurrence_of,
    resolvent_denominator_lcm,
    series_terms,
)

import test_automaton
from test_automaton import closure_machine, symmetry_orbits


def padd(a, b):
    """a + b for two Polynomials."""
    return Polynomial([x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def psub(a, b):
    """a - b for two Polynomials."""
    return padd(a, b * -1)


def bareiss_determinant(matrix):
    """Fraction-free determinant of a matrix of Polynomials; every division
    is exact by construction.  The independent reference for the gf."""
    size = len(matrix)
    if size == 0:
        return Polynomial.ONE
    rows = [list(row) for row in matrix]
    zero, prev = Polynomial(), Polynomial.ONE
    sign = 1
    for k in range(size - 1):
        if rows[k][k] == zero:
            pivot_row = next((r for r in range(k + 1, size) if rows[r][k] != zero), None)
            if pivot_row is None:
                return zero
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = psub(rows[i][j] * rows[k][k], rows[i][k] * rows[k][j])
                rows[i][j] = num.divexact(prev)
            rows[i][k] = zero
        prev = rows[k][k]
    det = rows[size - 1][size - 1]
    return det * sign


def series_terms_longdiv(G, count):
    """c_1..c_count by power-series long division over the rationals."""
    num, den = G.numerator.coeffs, G.denominator.coeffs
    remainder = list(num) + [0] * max(0, count + 1 - len(num))
    out = []
    for n in range(count + 1):
        c = Fraction(remainder[n]) / den[0]
        out.append(c)
        for k, d in enumerate(den):
            if n + k < len(remainder):
                remainder[n + k] -= c * d
    return out[1:]


def resolvent_sum(T):
    """The gf of a transfer matrix, divisor 1, in normal form."""
    return RationalFunction(*_certified_gf(T))


def from_entries(entries, **vectors):
    """The TransferMatrix of a dense table: each row's sorted (j, count)
    pairs with count > 0, and the start and accept vectors as given."""
    rows = tuple(tuple((j, w) for j, w in enumerate(row) if w) for row in entries)
    return TransferMatrix(rows=rows, **vectors)


@pytest.fixture(scope="module")
def machine_gf():
    return resolvent_sum(transfer_matrix(build_canonical(4)))


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomialArithmetic:
    def test_gcd_extracts_common_factor(self):
        a = poly(-1, 1) * poly(-1, 1) * poly(1, -1, 1)
        assert a.gcd(poly(-1, 1)) == poly(-1, 1)
        assert (a * 6).gcd(poly(4, -4)) == poly(-1, 1)  # primitive, positive lead

    def test_fraction_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial([Fraction(1, 2)])
        with pytest.raises(TypeError):
            Polynomial([1, 2.0])

    def test_geometric_telescoping(self):
        ones = Polynomial([1] * 10)
        assert poly(1, -1) * ones == Polynomial([1] + [0] * 9 + [-1])

    def test_reference_denominator_has_degree_ten(self):
        den = product(Polynomial(c) for c in REFERENCE_GF_DENOMINATOR_FACTORS)
        assert den.degree == 10
        assert den.coeffs == (1, -2, -4, 10, -1, -8, 9, -10, 6, -2, 1)

    def test_divmod_exact(self):
        assert poly(-1, 0, 0, 1).divexact(poly(-1, 1)) == poly(1, 1, 1)
        assert poly(-2, 0, 0, 2).divexact(poly(2, -2)) == poly(-1, -1, -1)
        with pytest.raises(ArithmeticError):
            poly(1, 0, 1).divexact(poly(1, 1))
        with pytest.raises(ArithmeticError):
            poly(1, 1).divexact(poly(2, 2))  # (x + 1)/2 is not integral

    def test_divmod_remainder(self):
        # x^2 + 1 = (x + 1)(x - 1) + 2 over the rationals
        assert poly(1, 0, 1).pseudo_remainder(poly(1, 1)) == poly(2)
        # by 2x + 2 the rational remainder is still 2, scaled by |2|^2
        assert poly(1, 0, 1).pseudo_remainder(poly(2, 2)) == poly(8)
        # a negative leading coefficient keeps the remainder's sign
        assert poly(1, 0, 1).pseudo_remainder(poly(-2, -2)) == poly(8)
        assert poly(1, 2).pseudo_remainder(poly(1, 0, 1)) == poly(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly(1).divexact(Polynomial())
        with pytest.raises(ZeroDivisionError):
            poly(1).pseudo_remainder(Polynomial())

    def test_evaluate(self):
        assert poly(-1, 0, 3, 0, 1)(Fraction(1, 2)) == Fraction(-1) + Fraction(3, 4) + Fraction(1, 16)

    def test_primitive(self):
        assert poly(2, 4).primitive() == poly(1, 2)
        assert poly(4, 6, -2).primitive() == poly(-2, -3, 1)
        assert poly(-3).primitive() == poly(1)
        assert Polynomial().primitive() == Polynomial()

    def test_str(self):
        assert str(poly(1, -1, 2)) == "2*x^2 - x + 1"
        assert str(Polynomial()) == "0"


def rational_divmod(a, b):
    """Quotient and remainder of coefficient lists over the rationals."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            rem[i + j] -= quot[i] * c
    return _trim(quot), _trim(rem[: len(b) - 1])


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def rational_gcd(a, b):
    """Monic gcd of two coefficient lists by rational Euclid."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, rational_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else []


def primitive_of(coeffs):
    """The primitive integer Polynomial with positive lead that is a
    rational multiple of a Fraction coefficient list."""
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    return Polynomial([int(c * scale) for c in coeffs]).primitive()


integer_polys = st.lists(st.integers(-30, 30), max_size=7).map(Polynomial)
nonzero_polys = integer_polys.filter(lambda p: not p.is_zero())


class TestIntegerDivisionAgainstRationals:
    @given(integer_polys, integer_polys, integer_polys)
    def test_gcd_is_primitive_rational_gcd(self, a, b, common):
        a, b = a * common, b * common
        assert a.gcd(b) == primitive_of(rational_gcd(a.coeffs, b.coeffs))

    @given(integer_polys, nonzero_polys)
    def test_pseudo_remainder_scales_rational_remainder(self, a, b):
        rem = rational_divmod(a.coeffs, b.coeffs)[1]
        power = max(a.degree - b.degree + 1, 0)
        expected = [c * abs(b.leading()) ** power for c in rem]
        assert all(c.denominator == 1 for c in expected)
        assert a.pseudo_remainder(b) == Polynomial([int(c) for c in expected])

    @given(integer_polys, nonzero_polys)
    def test_divexact_inverts_product(self, a, b):
        assert (a * b).divexact(b) == a

    @given(integer_polys, nonzero_polys)
    def test_divexact_raises_on_non_divisor(self, a, b):
        quot, rem = rational_divmod(a.coeffs, b.coeffs)
        if rem or any(c.denominator != 1 for c in quot):
            with pytest.raises(ArithmeticError):
                a.divexact(b)
        else:
            assert a.divexact(b) == Polynomial([int(c) for c in quot])


def fraction_horner(coeffs, x):
    """Plain Horner evaluation in Fraction arithmetic."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


fractions = st.fractions(max_denominator=10**6) | st.integers(-50, 50).map(Fraction)


class TestEvaluationAgainstFractionHorner:
    @given(integer_polys, fractions)
    def test_fraction_point(self, p, x):
        value = p(x)
        assert isinstance(value, Fraction)
        assert value == fraction_horner(p.coeffs, x)

    @given(integer_polys, st.integers(-10**6, 10**6))
    def test_int_point_gives_int(self, p, x):
        value = p(x)
        assert type(value) is int
        assert value == fraction_horner(p.coeffs, x)

    @pytest.mark.parametrize("x", [0, Fraction(0), -3, Fraction(-7, 3), Fraction(5, 4)])
    def test_fixed_points(self, x):
        p = Polynomial([3, -2, 0, 5])
        assert p(x) == fraction_horner(p.coeffs, x)
        assert Polynomial()(x) == 0
        assert Polynomial([4])(x) == 4


class TestBareiss:
    def test_matches_cofactor_expansion_small(self):
        rows = [
            [poly(1, 1), poly(0, 1)],
            [poly(2), poly(1, 0, 1)],
        ]
        expected = psub(rows[0][0] * rows[1][1], rows[0][1] * rows[1][0])
        assert bareiss_determinant(rows) == expected

    def test_singular(self):
        rows = [[poly(1), poly(2)], [poly(2), poly(4)]]
        assert bareiss_determinant(rows).is_zero()


class TestResolvent:
    def test_single_loop_state(self):
        T = from_entries(
            ((1,),),
            start_vector=(1,),
            accept_even_vector=(1,),
            accept_odd_vector=(0,),
        )
        gf = resolvent_sum(T)
        assert gf == RationalFunction(poly(0, 0, 1), poly(1, 0, -1))

    def test_machine_gf_equals_reference(self, machine_gf):
        num = product(Polynomial(c) for c in REFERENCE_GF_NUMERATOR_FACTORS)
        den = product(Polynomial(c) for c in REFERENCE_GF_DENOMINATOR_FACTORS)
        assert machine_gf.numerator == num
        assert machine_gf.denominator == den

    def test_gf_independent_of_state_order(self, machine_gf):
        T = transfer_matrix(build_canonical(4))
        size = T.order
        perm = [(2 * i + 5) % size for i in range(size)]  # a fixed shuffle
        assert sorted(perm) == list(range(size))
        dense = T.entries  # a property that rebuilds the dense table on every read
        entries = tuple(
            tuple(dense[perm[i]][perm[j]] for j in range(size)) for i in range(size)
        )
        shuffled = from_entries(
            entries,
            start_vector=tuple(T.start_vector[perm[i]] for i in range(size)),
            accept_even_vector=tuple(T.accept_even_vector[perm[i]] for i in range(size)),
            accept_odd_vector=tuple(T.accept_odd_vector[perm[i]] for i in range(size)),
        )
        assert resolvent_sum(shuffled) == machine_gf

    def test_denominator_lcm(self):
        T = transfer_matrix(build_canonical(4))
        expected = product(Polynomial(c) for c in RESOLVENT_LCM_FACTORS).primitive()
        assert resolvent_denominator_lcm(T) == expected

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("build", [build_canonical, build_general])
    def test_lcm_annihilates_every_entry_sequence(self, build, m):
        # Every (T^k)_ij obeys the recurrence of det(xI - T), of order S, and
        # so does coefficient n of L(x) * sum_k (T^k)_ij x^k.  S + 1
        # consecutive zeros of it from n = deg L + S on make every later one zero.
        T = transfer_matrix(build(m))
        lcm = resolvent_denominator_lcm(T)
        size, deg = T.order, lcm.degree
        powers = _matrix_powers(T.entries, deg + 2 * size)
        for n in range(deg + size, deg + 2 * size + 1):
            for i in range(size):
                for j in range(size):
                    assert sum(c * powers[n - t][i][j] for t, c in enumerate(lcm.coeffs)) == 0


def _matrix_powers(entries, top):
    """T^0 .. T^top as dense lists, each the last times T over T's nonzero entries."""
    size = len(entries)
    nonzero = [[(j, w) for j, w in enumerate(row) if w] for row in entries]
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    powers = [power]
    for _ in range(top):
        nxt = [[0] * size for _ in range(size)]
        for i, row in enumerate(power):
            for k, v in enumerate(row):
                if v:
                    for j, w in nonzero[k]:
                        nxt[i][j] += v * w
        power = nxt
        powers.append(power)
    return powers


# Answers of the retired Bareiss path (bordered-matrix determinants for the gf,
# 81 cofactor minors for the LCM), recorded before it was removed.
BAREISS_GF = {
    "canonical4": (
        [0, 1, 1, -5, 2, 3, -7, 8, -4, 2],
        [1, -2, -4, 10, -1, -8, 9, -10, 6, -2, 1],
    ),
    "general1": ([0, 0, -1], [-1, 0, 1]),
    "general2": ([0, 1], [1, -2, 1]),
    "general3": ([0, 0, -3, 0, 3, 0, -2], [-1, 0, 4, 0, -5, 0, 2]),
    "general4": (
        [0, 1, 2, -3, -2, -2, 2, 3, 0, 1],
        [1, -2, -4, 10, -1, -8, 9, -10, 6, -2, 1],
    ),
    "general5": (
        [0, 0, -5, 0, 41, 0, -129, 0, 191, 0, -115, 0, 8, 0, -43, 0, 47, 0, 97,
         0, -75, 0, -61, 0, -8],
        [-1, 0, 16, 0, -98, 0, 296, 0, -478, 0, 387, 0, -65, 0, -152, 0, 134,
         0, -20, 0, -26, 0, 5, 0, 2],
    ),
}
BAREISS_LCM = {
    "canonical4": [1, -8, 23, -30, 18, 0, -7, 2, 1],
    "general3": [-1, 4, -5, 2],
    "general4": [1, -8, 23, -30, 18, 0, -7, 2, 1],
}
# LCMs of the gcd fold that `resolvent_denominator_lcm` replaced, recorded
# before it was removed: minimal, where the annihilation test shows only that
# the LCM is a common denominator.
FOLD_LCM = {
    "canonical5": [1, -21, 188, -952, 3023, -6137, 7292, -2578, -6097, 9759, -4027,
                   -3483, 4534, -920, -1361, 749, 192, -152, -23, 11, 2],
    "general1": [-1, 1],
    "general2": [1, -2, 1],
    "general5": [1, -21, 188, -952, 3023, -6137, 7292, -2578, -6097, 9759, -4027,
                 -3483, 4534, -920, -1361, 749, 192, -152, -23, 11, 2],
}


def _machine(name):
    if name.startswith("canonical"):
        return build_canonical(int(name.removeprefix("canonical")))
    return build_general(int(name.removeprefix("general")))


class TestRetiredPathAnswers:
    @pytest.mark.parametrize("name", sorted(BAREISS_GF))
    def test_gf(self, name):
        gf = generating_function(_machine(name))
        assert (list(gf.numerator.coeffs), list(gf.denominator.coeffs)) == BAREISS_GF[name]

    @pytest.mark.parametrize("name", sorted(BAREISS_LCM))
    def test_lcm(self, name):
        lcm = resolvent_denominator_lcm(transfer_matrix(_machine(name)))
        assert list(lcm.coeffs) == BAREISS_LCM[name]


def gcd_fold_lcm(T):
    """The LCM as the library computed it before: one certified fit for every
    distinct entry sequence (T^k)_ij, k = 0..2S, joined by gcd and divexact."""
    size = T.order
    powers = _matrix_powers(T.entries, 2 * size)
    sequences = {tuple(p[i][j] for p in powers) for i in range(size) for j in range(size)}
    lcm = Polynomial.ONE
    for seq in sequences:
        den = certified_series(seq, size)[1]
        lcm = (lcm * den.divexact(lcm.gcd(den))).primitive()
    return lcm


def _lcm_input(entries):
    size = len(entries)
    return from_entries(
        entries,
        start_vector=(0,) * size,
        accept_even_vector=(0,) * size,
        accept_odd_vector=(0,) * size,
    )


small_matrices = st.integers(0, 7).flatmap(
    lambda size: st.lists(
        st.lists(st.integers(0, 2), min_size=size, max_size=size), min_size=size, max_size=size
    )
)


class TestMinimalLcm:
    @pytest.mark.parametrize("name", sorted(FOLD_LCM))
    def test_pinned(self, name):
        lcm = resolvent_denominator_lcm(transfer_matrix(_machine(name)))
        assert list(lcm.coeffs) == FOLD_LCM[name]

    @given(small_matrices)
    @example([[0, 1, 2], [0, 0, 1], [0, 0, 0]])  # nilpotent: every entry a polynomial
    @example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # periodic: 1 - x^3
    @example([[2, 1], [0, 0]])  # a zero row
    def test_equals_gcd_fold(self, entries):
        T = _lcm_input(entries)
        assert resolvent_denominator_lcm(T) == gcd_fold_lcm(T)


def _bordered_bareiss_gf(T):
    """Independent reference: with M = I - x^2 T,
    s M^(-1) a = -det([[M, a], [s, 0]]) / det(M), reduced by its gcd."""
    size = T.order
    entries = T.entries  # a property that rebuilds the dense table on every read
    base = [
        [Polynomial([int(i == j), 0, -entries[i][j]]) for j in range(size)]
        for i in range(size)
    ]

    def walk(accept):
        bordered = [row + [Polynomial([accept[i]])] for i, row in enumerate(base)]
        bordered.append([Polynomial([v]) for v in T.start_vector] + [Polynomial()])
        return bareiss_determinant(bordered) * -1

    num = padd(poly(0, 0, 1) * walk(T.accept_even_vector), poly(0, 1) * walk(T.accept_odd_vector))
    den = bareiss_determinant(base)
    common = num.gcd(den)
    return RationalFunction(num.divexact(common), den.divexact(common))


def _direct_counts(T, count):
    """c_1..c_count by explicit row-vector times matrix products."""
    size = T.order
    entries = T.entries  # a property that rebuilds the dense table on every read
    vec = list(T.start_vector)
    out = []
    for n in range(1, count + 1):
        accept = T.accept_odd_vector if n % 2 else T.accept_even_vector
        out.append(sum(vec[i] * accept[i] for i in range(size)))
        if n % 2 == 0:
            vec = [sum(vec[i] * entries[i][j] for i in range(size)) for j in range(size)]
    return out


def _indicator(size):
    return st.tuples(*([st.integers(0, 1)] * size))


transfer_matrices = st.integers(0, 6).flatmap(
    lambda size: st.builds(
        from_entries,
        entries=st.tuples(*([_indicator(size)] * size)),
        start_vector=_indicator(size),
        accept_even_vector=_indicator(size),
        accept_odd_vector=_indicator(size),
    )
)


class TestGuessAndCertify:
    @given(transfer_matrices)
    def test_matches_bordered_bareiss(self, T):
        # the certified fit is in lowest terms with no gcd taken
        assert resolvent_sum(T) == _bordered_bareiss_gf(T)

    @given(transfer_matrices)
    def test_series_terms_match_vector_iteration(self, T):
        assert series_terms(resolvent_sum(T), 40) == _direct_counts(T, 40)

    def test_empty_machine(self):
        T = from_entries((), start_vector=(), accept_even_vector=(), accept_odd_vector=())
        gf = resolvent_sum(T)
        assert gf.numerator == Polynomial() and gf.denominator == Polynomial.ONE
        assert resolvent_denominator_lcm(T) == Polynomial.ONE

    def test_recovers_known_function(self):
        terms = [1, 1, 2, 3, 5, 8, 13]
        num, den = certified_series(terms, 2)
        assert RationalFunction(num, den) == RationalFunction(poly(1), poly(1, -1, -1))

    def test_term_budget_below_bound_raises(self, machine_gf):
        S = 9  # canonical states
        terms = [0] + series_terms(machine_gf, 4 * S)
        certified_series(terms, 2 * S)
        with pytest.raises(ValueError):
            certified_series(terms[:-1], 2 * S)

    def test_guess_above_degree_bound_raises(self):
        # 1/(1-x)^5 needs a degree-5 denominator
        terms = [1, 5, 15, 35, 70, 126, 210, 330, 495, 715, 1001, 1365]
        assert certified_series(terms, 5)[1].degree == 5
        with pytest.raises(ArithmeticError):
            certified_series(terms, 4)


class TestSeriesTerms:
    def test_thirty_reference_terms(self, machine_gf):
        assert tuple(series_terms(machine_gf, 30)) == REFERENCE_TERMS

    def test_constant_term_vanishes(self, machine_gf):
        assert machine_gf.numerator.constant() == 0

    def test_matches_oracle_counts(self, machine_gf):
        terms = series_terms(machine_gf, 8)
        assert terms == [oracle.count_report(4, n).canonical for n in range(1, 9)]

    def test_long_division_cross_check(self, machine_gf):
        exact = series_terms(machine_gf, 50)
        assert [Fraction(c) for c in exact] == series_terms_longdiv(machine_gf, 50)

    def test_requires_nonzero_constant_denominator(self):
        with pytest.raises(ValueError):
            series_terms(RationalFunction(poly(1), poly(0, 1)), 5)

    def test_non_integer_series_raises(self):
        half = RationalFunction(poly(1), poly(2, -2))
        with pytest.raises(ArithmeticError):
            series_terms(half, 3)

    def test_non_integer_message_names_first_bad_coefficient(self):
        # (3 + x)/(3 + 2x) has c_1 = -1/3; the refusal names D(0), before any term
        gf = RationalFunction(poly(3, 1), poly(3, 2))
        for count in (0, 5):
            with pytest.raises(InexactError, match=r"^D\(0\) = 3 is not \+-1, so the series is not integral$"):
                series_terms(gf, count)

    def test_fractional_constant_term_is_dropped(self):
        # (1 + 2x)/2: c_0 = 1/2 is refused, though c_1.. are integers
        with pytest.raises(InexactError):
            series_terms(RationalFunction(poly(1, 2), poly(2)), 4)

    def test_fractional_constant_term_feeds_recurrence(self):
        # (1 + x)/(2 - 2x): c_0 = 1/2, then c_n = 1 for n >= 1, is refused
        with pytest.raises(InexactError):
            series_terms(RationalFunction(poly(1, 1), poly(2, -2)), 5)

    def test_refused_before_the_first_non_integer_term(self):
        # (2 + 2x + ... + 2x^5 + x^6)/2 has c_0..c_5 = 1 and c_6 = 1/2
        gf = RationalFunction(poly(2, 2, 2, 2, 2, 2, 1), poly(2))
        assert series_terms_longdiv(gf, 6) == [1, 1, 1, 1, 1, Fraction(1, 2)]
        with pytest.raises(InexactError, match=r"^D\(0\) = 2 "):
            series_terms(gf, 5)
        with pytest.raises(InexactError, match=r"^D\(0\) = 2 "):
            recurrence_of(gf)


@st.composite
def recurrence_gfs(draw):
    """N/D from D with D[0] in +-1, +-2, +-3, D sparse or constant, and N
    zero, of any degree, or a multiple of D.

    The constructor makes D's leading coefficient positive, so D[0] stays
    negative whenever the two have opposite signs.  It cancels no common
    factor: a multiple of D stays uncancelled, which the recurrence reads
    the same way."""
    tail = draw(st.lists(st.integers(-4, 4) | st.just(0), max_size=8))
    den = Polynomial([draw(st.sampled_from([1, -1, 2, -2, 3, -3])), *tail])
    num = draw(
        st.just(Polynomial())
        | st.lists(st.integers(-5, 5), max_size=14).map(Polynomial)
        | st.lists(st.integers(-5, 5), max_size=6).map(lambda q: Polynomial(q) * den)
    )
    return RationalFunction(num, den)


def assert_terms_or_refused(gf, count):
    """Long division's terms when |D(0)| = 1, else the up-front refusal."""
    d0 = gf.denominator.constant()
    if abs(d0) == 1:
        assert series_terms(gf, count) == series_terms_longdiv(gf, count)
    else:
        with pytest.raises(InexactError) as caught:
            series_terms(gf, count)
        assert str(caught.value) == f"D(0) = {d0} is not +-1, so the series is not integral"


class TestSeriesTermsAgainstLongDivision:
    @given(recurrence_gfs(), st.integers(0, 200))
    def test_terms_or_first_non_integer(self, gf, count):
        assert_terms_or_refused(gf, count)


@st.composite
def stripped_recurrence_gfs(draw):
    """A `recurrence_gfs` draw with its denominator times (1 - x)^k, k = 0..3.
    D[0] stays in +-1, +-2, +-3, so factors 1 - x reach both the recurrence,
    which may divide them out, and the refusal."""
    gf = draw(recurrence_gfs())
    k = draw(st.integers(0, 3))
    return RationalFunction(gf.numerator, gf.denominator * product([poly(1, -1)] * k))


class TestStrippedRecurrenceAgainstLongDivision:
    @given(stripped_recurrence_gfs(), st.integers(0, 200))
    @example(RationalFunction(poly(1, 3), poly(1, 0, -5) * poly(1, -1) * poly(1, -1)), 40)
    def test_terms_or_first_non_integer(self, gf, count):
        assert_terms_or_refused(gf, count)


def unstripped_series_terms(G, count):
    """`series_terms` as it was before it divided out 1 - x: the recurrence
    over every nonzero tap of the denominator, for D(0) = +-1."""
    num, den = G.numerator.coeffs, G.denominator.coeffs
    if den[0] < 0:
        num, den = [-c for c in num], [-c for c in den]
    assert den[0] == 1
    taps = [(i, c) for i, c in enumerate(den) if i and c]
    out = [num[0] if num else 0]
    for n in range(1, count + 1):
        acc = num[n] if n < len(num) else 0
        for i, c in taps:
            if i > n:
                break
            acc -= c * out[n - i]
        out.append(acc)
    return out[1:]


LUMPED_MACHINES = [("canonical", m) for m in range(1, 6)] + [("general", m) for m in range(1, 7)]


class TestStrippedRecurrence:
    @pytest.mark.parametrize("mode,m", LUMPED_MACHINES, ids=[f"{mode}{m}" for mode, m in LUMPED_MACHINES])
    def test_only_m4_divides_out_one_minus_x(self, mode, m):
        gf = generating_function(closure_machine(mode, m))
        den = list(gf.denominator.coeffs)
        # c_0 = 0 and D(0) = +-1, so the series is integral and `series_terms` accepts it
        assert gf.numerator.constant() == 0 and abs(den[0]) == 1
        if den[0] < 0:
            den = [-c for c in den]
        taps, strip = _stripped_taps(den)
        assert strip == (2 if m == 4 else 0)
        assert len(taps) == (4 if m == 4 else len([c for c in den[1:] if c]))

    @pytest.mark.parametrize("name", ["canonical4", "general4"])
    def test_m4_terms_match_the_unstripped_recurrence(self, name):
        gf = generating_function(_machine(name))
        assert series_terms(gf, 3000) == unstripped_series_terms(gf, 3000)


class TestLumping:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_blocks_are_the_symmetry_orbits(self, m):
        machine = closure_machine("general", m)
        assert lumped(transfer_matrix(machine)).order == symmetry_orbits(machine)

    @pytest.mark.parametrize("mode,m", LUMPED_MACHINES)
    def test_gf_equals_the_unlumped_fit(self, mode, m):
        # past build_general's m <= 5 at general m = 6
        machine = closure_machine(mode, m)
        num, den = _certified_gf(transfer_matrix(machine))
        assert generating_function(machine) == RationalFunction(num, den * machine.divisor)

    @given(transfer_matrices)
    def test_lumped_matrix_counts_what_the_matrix_counts(self, T):
        L = lumped(T)
        assert L.order <= T.order
        assert resolvent_sum(L) == resolvent_sum(T)
        assert _direct_counts(L, 30) == _direct_counts(T, 30)

    def test_parallel_edges_and_one_state_keep_their_terms(self):
        one_state = from_entries(
            ((3,),), start_vector=(1,), accept_even_vector=(1,), accept_odd_vector=(0,)
        )
        parallel = transfer_matrix(test_automaton.TestTransferMatrixInvariant.PARALLEL_EDGES)
        for T, terms in ((one_state, [0, 1, 0, 3, 0, 9]), (parallel, [0, 0, 0, 2, 0, 0])):
            assert lumped(T) == T
            assert series_terms(resolvent_sum(lumped(T)), 6) == terms


class TestSparseRowsOnly:
    def test_gf_and_lcm_never_read_the_dense_table(self, monkeypatch):
        def dense(T):
            raise AssertionError("the dense table was read")

        monkeypatch.setattr(TransferMatrix, "entries", property(dense))
        machine = build_general(5)
        num, den = _certified_gf(lumped(transfer_matrix(machine)))
        assert RationalFunction(num, den * machine.divisor) == generating_function(machine)
        lcm = resolvent_denominator_lcm(transfer_matrix(build_canonical(4)))
        assert lcm == product(Polynomial(c) for c in RESOLVENT_LCM_FACTORS).primitive()


class TestNormalization:
    def test_idempotent(self, machine_gf):
        assert RationalFunction(machine_gf.numerator, machine_gf.denominator) == machine_gf

    @given(integer_polys, nonzero_polys, st.integers(-30, 30).filter(bool))
    def test_constructor_reduces_to_one_form(self, num, den, scale):
        gf = RationalFunction(num, den)
        assert RationalFunction(num * scale, den * scale) == gf
        assert RationalFunction(num * -1, den * -1) == gf

    def test_sign_convention(self):
        gf = RationalFunction(poly(0, 1), poly(1, -1))
        assert gf.denominator.leading() > 0
        assert gf == RationalFunction(poly(0, -1), poly(-1, 1))

    def test_contents_reduced(self):
        gf = RationalFunction(poly(0, 6), poly(2, -2))
        assert gf == RationalFunction(poly(0, 3), poly(1, -1))

    def test_json_round_trip(self, machine_gf):
        data = json.loads(json.dumps(machine_gf.to_json_dict()))
        read = RationalFunction(Polynomial(data["numerator"]), Polynomial(data["denominator"]))
        assert read == machine_gf
        assert read.to_json_dict() == data


class TestBfile:
    def test_round_trip(self, machine_gf):
        from gridcuts.series import format_bfile

        terms = series_terms(machine_gf, 30)
        text = format_bfile(terms)
        assert text.splitlines()[-1] == "30 126217718"
        assert text.endswith("\n")
        pairs = [line.split(" ") for line in text.splitlines()]
        assert [int(n) for n, _ in pairs] == list(range(1, 31))
        assert [int(value) for _, value in pairs] == terms

    def test_past_the_int_digit_limit(self):
        from gridcuts.series import format_bfile

        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = format_bfile([10**5000])
            assert sys.get_int_max_str_digits() == 4300  # restored after formatting
        finally:
            sys.set_int_max_str_digits(old)
        assert text == "1 1" + "0" * 5000 + "\n"


def run_recurrence(rec, count):
    """c_1..c_count from the recurrence alone: its initial terms, then
    c_n = -sum_{i>=1} coefficients[i] c_{n-i} / coefficients[0]."""
    values = list(rec.initial)
    d0 = rec.coefficients[0]
    for n in range(len(values), count + 1):
        acc = sum(rec.coefficients[i] * values[n - i] for i in range(1, min(rec.order, n) + 1))
        assert acc % d0 == 0, f"recurrence gives a non-integer c_{n}"
        values.append(-acc // d0)
    return values[1 : count + 1]


class TestRecurrence:
    def test_order_ten(self, machine_gf):
        rec = recurrence_of(machine_gf)
        assert rec.order == 10
        assert rec.valid_from == 10

    def test_reproduces_c30(self, machine_gf):
        rec = recurrence_of(machine_gf)
        assert run_recurrence(rec, 30)[-1] == 126217718

    def test_reproduces_all_terms(self, machine_gf):
        rec = recurrence_of(machine_gf)
        assert run_recurrence(rec, 40) == series_terms(machine_gf, 40)

    def test_geometric(self):
        rec = recurrence_of(RationalFunction(poly(0, 1), poly(1, -1)))
        assert run_recurrence(rec, 5) == [1, 1, 1, 1, 1]
        assert rec.order == 1

    def test_nonzero_constant_term(self):
        rec = recurrence_of(RationalFunction(poly(1), poly(1, -1)))
        assert rec.initial == (1,)
        assert run_recurrence(rec, 5) == [1, 1, 1, 1, 1]

    def test_two_term_recurrence_with_offset(self):
        # G = (1+x)/(1-x-x^2): c_0=1, c_1=2, then Fibonacci-style growth
        rec = recurrence_of(RationalFunction(poly(1, 1), poly(1, -1, -1)))
        assert run_recurrence(rec, 6) == [2, 3, 5, 8, 13, 21]

    def test_reads_a_gf_without_a_gcd(self, monkeypatch):
        # a gf is in normal form once constructed, so nothing reduces it again
        gf = generating_function(build_general(4))
        calls = []
        real = Polynomial.gcd
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: calls.append(1) or real(a, b))
        recurrence_of(gf)
        assert calls == []

    def test_gf_is_built_without_a_gcd(self, monkeypatch):
        # a certified fit is in lowest terms, so nothing reduces it
        generating_function.cache_clear()
        machine = build_general(4)
        calls = []
        real = Polynomial.gcd
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: calls.append(1) or real(a, b))
        generating_function(machine)
        assert calls == []

    @pytest.mark.parametrize(
        "mode,m",
        [("canonical", m) for m in range(1, 6)] + [("general", m) for m in range(1, 7)],
    )
    def test_library_gf_is_coprime(self, mode, m):
        alphabet = tuple(range(1 << m))
        machine = (
            build_canonical(m) if mode == "canonical"
            else automaton._build(m, "general", alphabet, alphabet, 2)  # past build_general's m <= 5
        )
        gf = generating_function(machine)
        assert gf.numerator.gcd(gf.denominator) == Polynomial.ONE

    def test_general_gf_is_constructed_once(self, monkeypatch):
        # the divisor joins the certified denominator before the one normalization
        generating_function.cache_clear()
        machine = build_general(4)
        calls = []
        real = RationalFunction.__post_init__
        monkeypatch.setattr(RationalFunction, "__post_init__", lambda gf: calls.append(1) or real(gf))
        generating_function(machine)
        assert calls == [1]

    def test_general_mode_divisor(self):
        gf = generating_function(build_general(4))
        assert series_terms(gf, 10) == [oracle.count_report(4, n).cuts for n in range(1, 11)]

    def test_general_machines_transpose(self):
        # c(m, n), term n of the m-row gf, counts the cuts of the n x m board too
        terms = {m: series_terms(generating_function(build_general(m)), 5) for m in range(1, 6)}
        for m in range(1, 6):
            for n in range(1, 6):
                assert terms[m][n - 1] == terms[n][m - 1], (m, n)
