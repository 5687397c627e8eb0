import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gridcuts import automaton, oracle
from gridcuts.asymptotics import (
    UnsupportedPoleShape,
    _REFINE_WIDTH,
    _descartes,
    _leftmost_root,
    _root_bound,
    _shift,
    _sign_at,
    dominant_form,
    error_profile,
    refine_root,
)
from gridcuts.automaton import build_canonical, build_general, transfer_matrix
from gridcuts.reference import (
    REFERENCE_A,
    REFERENCE_B,
    REFERENCE_GROWTH,
    reference_amplitudes,
)
from gridcuts.series import (
    Polynomial,
    RationalFunction,
    generating_function,
    product,
    series_terms,
)
from test_series import (
    fraction_horner,
    fractions,
    integer_polys,
    nonzero_polys,
    rational_divmod,
    resolvent_sum,
)


def poly(*coeffs):
    return Polynomial(coeffs)


def smallest_positive_root(p):
    """Certified bracket of the smallest positive root of p with p(0) != 0,
    narrower than 10^-30; None when there is no such root.  p need not be
    squarefree: p / gcd(p, p') is searched, as `dominant_form` does for a
    denominator."""
    return _leftmost_root(p.divexact(p.gcd(p.derivative())))


def sturm_chain(p):
    """Sturm chain of p in integers: p, p', then each negated
    pseudo-remainder of the two before over its positive content, up to the
    last nonzero one.  Element by element it is a positive multiple of the
    rational chain, so it has the same sign variations."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        rem = chain[-2].pseudo_remainder(chain[-1])
        content = gcd(*rem.coeffs) or 1
        chain.append(Polynomial([-c // content for c in rem.coeffs]))
    chain.pop()
    return chain


def grid_bracket(z, bound, width=_REFINE_WIDTH):
    """The bracket rule in closed form: the dyadic cell (j, j+1) bound/2^k
    holding the rational z at the first level k with bound/2^k < width, or
    (z, z) when z is a point of that grid."""
    cell = bound
    while cell >= width:
        cell /= 2
    j = z / cell
    if j.denominator == 1:
        return z, z
    j = j.numerator // j.denominator
    return j * cell, (j + 1) * cell


def fraction_variations(chain, x):
    """Sign variations of the chain at x, evaluated in Fractions."""
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_refine_root(p, lo, hi, width):
    """Bisection of a sign-change bracket in Fraction arithmetic: the
    reference for the library's common-denominator `refine_root`."""
    flo = p(lo)
    if flo == 0:
        return lo, lo
    if p(hi) == 0:
        return hi, hi
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0:
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


def root_count(chain, lo, hi):
    """Number of distinct real roots in (lo, hi]; lo and hi may be roots."""
    return fraction_variations(chain, lo) - fraction_variations(chain, hi)


def isolate_real_roots(p, interval=None, width=Fraction(1, 10**12)):
    """Disjoint rational intervals, one simple root of p each, all narrower
    than `width`, ordered left to right.

    Test-local reference: the all-roots isolator the library used before
    dominant_form searched for the smallest positive pole alone, in
    Fraction arithmetic throughout.  Works on the squarefree part of p, so
    multiple roots are located once.  Cells are halves of `interval`, and a
    root that is a halving point is returned as (r, r), so each bracket
    follows the rule `grid_bracket` states.
    """
    if p.degree < 1:
        return []
    sqf = p.divexact(p.gcd(p.derivative()))
    chain = sturm_chain(sqf)
    if interval is None:
        bound = _root_bound(sqf)
        interval = (-bound, bound)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    # nudge endpoints off roots so variation counts are clean
    while sqf(lo) == 0:
        lo -= width / 2
    while sqf(hi) == 0:
        hi += width / 2

    found = []

    def split(a, b, count):
        # count roots in (a, b]; a itself may be a root, found to its left
        if count == 0:
            return
        if count == 1 and sqf(a) != 0:
            found.append(fraction_refine_root(sqf, a, b, width))
            return
        mid = (a + b) / 2
        left = root_count(chain, a, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    split(lo, hi, root_count(chain, lo, hi))
    return found


@pytest.fixture(scope="module")
def machine_gf():
    return resolvent_sum(transfer_matrix(build_canonical(4)))


@pytest.fixture(scope="module")
def estimate(machine_gf):
    return dominant_form(machine_gf, amplitude_reference=reference_amplitudes)


class TestRootIsolation:
    def test_quartic_with_growth_pole(self):
        (lo, hi), = isolate_real_roots(poly(-1, 0, 3, 0, 1), (Fraction(0), Fraction(1)))
        assert lo <= Fraction(1) / Fraction(REFERENCE_GROWTH).limit_denominator(10**9) <= hi or (
            0.5502505 < float(lo) < float(hi) < 0.5502506
        )

    def test_second_quartic(self):
        (lo, hi), = isolate_real_roots(poly(-1, 0, 2, 0, 1), (Fraction(0), Fraction(1)))
        assert 0.6435942 < float(lo) <= float(hi) < 0.6435943

    def test_exact_rational_root(self):
        (lo, hi), = isolate_real_roots(poly(-1, 1))
        assert lo <= 1 <= hi
        assert hi - lo < Fraction(1, 10**12)

    def test_all_roots_found_and_disjoint(self):
        p = poly(-1, 1) * poly(-4, 1) * poly(2, 1)  # roots 1, 4, -2
        intervals = isolate_real_roots(p)
        assert len(intervals) == 3
        for (alo, ahi), (blo, bhi) in zip(intervals, intervals[1:]):
            assert ahi < blo
        for root, (lo, hi) in zip((-2, 1, 4), intervals):
            assert lo <= root <= hi

    def test_multiple_roots_located_once(self):
        p = poly(-1, 1) * poly(-1, 1) * poly(1, 1)
        assert len(isolate_real_roots(p)) == 2

    def test_sign_change_across_intervals(self):
        p = poly(-1, 0, 3, 0, 1)
        for lo, hi in isolate_real_roots(p):
            if lo != hi:
                assert (p(lo) > 0) != (p(hi) > 0)

    def test_doubling_precision_nests(self):
        p = poly(-1, 0, 3, 0, 1)
        wide = isolate_real_roots(p, (Fraction(0), Fraction(1)), Fraction(1, 10**6))
        narrow = isolate_real_roots(p, (Fraction(0), Fraction(1)), Fraction(1, 10**12))
        (wlo, whi), = wide
        (nlo, nhi), = narrow
        assert wlo <= nlo <= nhi <= whi

    def test_refine_preserves_bracket(self):
        p = poly(-2, 0, 1)  # sqrt(2)
        lo, hi = refine_root(p, Fraction(1), Fraction(2), Fraction(1, 10**9))
        assert p(lo) < 0 < p(hi)
        assert hi - lo < Fraction(1, 10**9)

    def test_sturm_chain_ends_nonzero(self):
        chain = sturm_chain(poly(-1, 0, 3, 0, 1))
        assert not chain[-1].is_zero()

    @given(nonzero_polys)
    def test_sturm_chain_is_positive_multiple_of_rational_chain(self, p):
        chain = sturm_chain(p)
        reference = rational_sturm_chain(p.coeffs)
        assert len(chain) == len(reference)
        for got, want in zip(chain, reference):
            assert len(got.coeffs) == len(want)
            ratio = got.leading() / want[-1]
            assert ratio > 0
            assert list(got.coeffs) == [ratio * c for c in want]


def rational_sturm_chain(coeffs):
    """Sturm chain of a coefficient list by rational remainders."""
    chain = [[Fraction(c) for c in coeffs], [Fraction(i * c) for i, c in enumerate(coeffs)][1:]]
    while chain[-1]:
        chain.append([-c for c in rational_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return chain


class TestSmallestPositiveRoot:
    # in each, some halving midpoint of (0, Cauchy bound] is itself a root
    # while two or more roots remain, e.g. 2 in (0, 4] for (x - 1)(x - 2);
    # the smallest positive root is 1 in each
    @pytest.mark.parametrize("coeffs", [
        (2, -3, 1), (6, -7, 0, 1), (-6, 11, -6, 1), (-15, 23, -9, 1), (-42, 55, -14, 1),
    ])
    def test_midpoint_on_a_root_gives_the_reference_bracket(self, coeffs):
        p = poly(*coeffs)
        assert smallest_positive_root(p) == grid_bracket(Fraction(1), _root_bound(p))

    def test_root_on_the_grid_is_returned_as_a_point(self):
        # 1 = 4/2^2 on the grid of (0, 4]
        assert smallest_positive_root(poly(2, -3, 1)) == (1, 1)

    @pytest.mark.parametrize("coeffs", [(1, 1), (1, 0, 1), (2, 3, 1), (1, 0, 0, 1)])
    def test_no_positive_root(self, coeffs):
        assert smallest_positive_root(poly(*coeffs)) is None


rational_roots = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=60), min_size=1, max_size=4, unique=True
)


def linear_factors(roots):
    return product(poly(-r.numerator, r.denominator) for r in roots)


@st.composite
def rational_root_polys(draw):
    """Distinct nonzero rational linear factors, times x^2 + c (c > 0, no
    real root) with probability 1/2, and the smallest positive root or None."""
    roots = draw(rational_roots.filter(lambda roots: 0 not in roots))
    p = linear_factors(roots)
    if draw(st.booleans()):
        p = p * poly(draw(st.integers(1, 9)), 0, 1)
    return p, min((r for r in roots if r > 0), default=None)


@st.composite
def unit_interval_polys(draw):
    """Rational linear factors around (0, 1), repeats allowed, times a
    quadratic whose complex pair lies near (0, 1) with probability 1/2, and
    the number of roots in (0, 1) counted with multiplicity."""
    roots = draw(st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=12), max_size=5))
    p = linear_factors(roots)
    if draw(st.booleans()):
        # 144 w ((x - u/12)^2 + 1/w)
        u, w = draw(st.integers(0, 12)), draw(st.integers(1, 400))
        p = p * poly(w * u * u + 144, -24 * w * u, 144 * w)
    return p, sum(0 < r < 1 for r in roots)


@st.composite
def squarefree_polys(draw):
    """Distinct rational linear factors times x^2 + c (no real root), x^2 - k
    (irrational roots +-sqrt k) or 1, and one real root of each product."""
    p, roots = poly(1), draw(rational_roots)
    for r in roots:
        p = p * poly(-r.numerator, r.denominator)
    c = draw(st.sampled_from([0, 1, 3, -2, -3, -5, -7]))
    if c:
        p = p * poly(c, 0, 1)
    if c < 0:
        # sqrt(-c) within 10^-3
        roots.append(Fraction(isqrt(-c * 10**6), 1000))
    return p, draw(st.sampled_from(roots))


@st.composite
def brackets(draw, around=Fraction(0)):
    """lo < hi around a point, the two ends over different denominators."""
    primes = st.sampled_from([7, 11, 13, 17, 19, 23, 97])
    below, above = draw(st.lists(primes, min_size=2, max_size=2, unique=True))
    lo = around - Fraction(draw(st.integers(1, 5)), below)
    hi = around + Fraction(draw(st.integers(1, 5)), above)
    assume(lo.denominator != hi.denominator)
    return lo, hi


narrow_widths = st.sampled_from([_REFINE_WIDTH, Fraction(7, 10**61)])


class TestRootIsolationAgainstFractions:
    """The integer common-denominator bisection against the Fraction
    bisection it replaced: identical brackets, not just equal roots."""

    @given(integer_polys, fractions, st.integers(0, 70))
    def test_sign_at(self, p, x, shift):
        value = fraction_horner(p.coeffs, x / 2**shift)
        sign = (value > 0) - (value < 0)
        assert _sign_at(p.coeffs, x.numerator, x.denominator, shift) == sign

    @given(integer_polys, fractions)
    def test_shift(self, p, y):
        shifted = _shift(p.coeffs)
        assert shifted == [
            sum(c * comb(i, k) for i, c in enumerate(p.coeffs)) for k in range(len(p.coeffs))
        ]
        assert fraction_horner(shifted, y) == fraction_horner(p.coeffs, y + 1)

    @given(unit_interval_polys())
    def test_descartes_bounds_the_roots_in_the_unit_interval(self, p_count):
        p, count = p_count
        bound = _descartes(p.coeffs)
        # at least the count and of its parity, so exact when it is 0 or 1
        assert bound >= count and (bound - count) % 2 == 0

    @given(squarefree_polys(), st.data(), narrow_widths)
    def test_refine_root(self, p_root, data, width):
        p, root = p_root
        lo, hi = data.draw(brackets(root))
        assert refine_root(p, lo, hi, width) == fraction_refine_root(p, lo, hi, width)
        # a width that some bracket along the way equals exactly
        width = (hi - lo) / 2 ** data.draw(st.integers(0, 100))
        assert refine_root(p, lo, hi, width) == fraction_refine_root(p, lo, hi, width)

    @given(brackets(), st.integers(1, 12), st.data())
    def test_midpoint_is_a_root(self, bracket, depth, data):
        lo, hi = bracket
        odd = 2 * data.draw(st.integers(0, 2 ** (depth - 1) - 1)) + 1
        root = lo + (hi - lo) * odd / 2**depth
        p = poly(-root.numerator, root.denominator) * poly(1, 0, 1)
        assert refine_root(p, lo, hi, _REFINE_WIDTH) == (root, root)
        assert fraction_refine_root(p, lo, hi, _REFINE_WIDTH) == (root, root)

    @pytest.mark.parametrize("end", [0, 1])
    @given(bracket=brackets())
    def test_endpoint_is_a_root(self, end, bracket):
        root = bracket[end]
        p = poly(-root.numerator, root.denominator) * poly(2, 0, 1)
        assert refine_root(p, *bracket, _REFINE_WIDTH) == (root, root)
        assert fraction_refine_root(p, *bracket, _REFINE_WIDTH) == (root, root)

    @given(squarefree_polys(), nonzero_polys)
    def test_repeated_factors_give_the_squarefree_bracket(self, q_root, r):
        p = q_root[0] * q_root[0] * r
        assume(p.constant() != 0)
        sqf = p.divexact(p.gcd(p.derivative()))
        assert smallest_positive_root(p) == smallest_positive_root(sqf)

    @given(squarefree_polys())
    def test_smallest_positive_root(self, p_root):
        p = p_root[0]
        assume(p.constant() != 0)
        found = isolate_real_roots(p, (Fraction(0), _root_bound(p)), _REFINE_WIDTH)
        assert smallest_positive_root(p) == (found[0] if found else None)

    @given(rational_root_polys())
    def test_bracket_follows_the_grid_rule(self, p_z):
        p, z = p_z
        expected = None if z is None else grid_bracket(z, _root_bound(p))
        assert smallest_positive_root(p) == expected


class TestDominantForm:
    def test_growth(self, estimate):
        assert abs(estimate.growth - REFERENCE_GROWTH) <= 1e-8

    def test_three_gcds_squarefree_part_multiple_and_mirror(self, machine_gf, monkeypatch):
        # gcd(D, D') gives the squarefree part, and one gcd each tests the
        # multiple and the mirror pole
        calls = []
        real = Polynomial.gcd
        monkeypatch.setattr(Polynomial, "gcd", lambda a, b: calls.append(1) or real(a, b))
        dominant_form(machine_gf)
        assert calls == [1, 1, 1]

    def test_amplitudes(self, estimate):
        assert abs(estimate.amplitude - REFERENCE_A) <= 1e-4
        assert abs(estimate.alternation - REFERENCE_B) <= 1e-4

    def test_closed_form_check(self, estimate):
        assert estimate.exact_check is True
        assert estimate.has_mirror_pole

    def test_pole_interval_certifies_z(self, estimate, machine_gf):
        lo, hi = estimate.pole_interval
        den = machine_gf.denominator
        assert (den(lo) > 0) != (den(hi) > 0)

    def test_pole_interval_pinned(self, estimate):
        # recorded before dominant_form searched for the smallest positive
        # pole alone; the search must stop on the same dyadic bracket
        assert estimate.pole_interval == (
            Fraction(2790101621507919254245544932629, 5070602400912917605986812821504),
            Fraction(348762702688489906780693116579, 633825300114114700748351602688),
        )

    def test_growth_squared_times_quadratic_root_is_one(self, estimate):
        (lo, hi), = isolate_real_roots(
            poly(-1, 3, 1), (Fraction(0), Fraction(1)), Fraction(1, 10**20)
        )
        ystar = float((lo + hi) / 2)
        assert abs(estimate.growth**2 * ystar - 1) <= 1e-10

    def test_geometric_series_exact(self):
        gf = RationalFunction(poly(0, 1), poly(1, -2))
        est = dominant_form(gf)
        assert est.growth == pytest.approx(2.0, abs=1e-12)
        assert not est.has_mirror_pole
        assert est.amp_minus == 0.0
        for n in range(1, 20):
            assert est.predict(n) == pytest.approx(2 ** (n - 1), rel=1e-12)

    def test_repeated_dominant_pole_unsupported(self):
        gf = RationalFunction(poly(1), poly(1, -1) * poly(1, -1))
        with pytest.raises(UnsupportedPoleShape):
            dominant_form(gf)

    def test_complex_dominant_pair_unsupported(self):
        # poles at +-i/2 inside the real pole at 1
        gf = RationalFunction(poly(1), poly(1, 0, 4) * poly(1, -1))
        with pytest.raises(UnsupportedPoleShape):
            dominant_form(gf)

    def test_simple_pole_inside_a_high_power(self):
        # 1/((1 - 3x)(1 - 2x)^11): the pole 1/3 is simple and dominant; next to
        # the 11-fold pole at 1/2, float root finding misplaces it by about 1e-8
        den = poly(1, -3)
        for _ in range(11):
            den = den * poly(1, -2)
        est = dominant_form(RationalFunction(poly(1), den))
        assert est.growth == 3.0
        assert est.amp_plus == 3**11
        lo, hi = est.pole_interval
        assert lo <= Fraction(1, 3) <= hi
        assert not est.has_mirror_pole and est.amp_minus == 0.0

    def test_negative_coefficient_refused(self):
        # 1/((1 + 4x^2)(1 - x)) has c_2 = -3, so it is no counting series
        gf = RationalFunction(poly(1), poly(1, 0, 4) * poly(1, -1))
        assert series_terms(gf, 2) == [1, -3]
        with pytest.raises(UnsupportedPoleShape, match="negative"):
            dominant_form(gf)

    def test_predicted_terms_match_two_pole_expansion(self, estimate):
        for n in (5, 10, 15):
            explicit = estimate.amp_plus * estimate.growth**n + estimate.amp_minus * (
                -estimate.growth
            ) ** n
            assert estimate.predict(n) == pytest.approx(explicit, rel=1e-12)


def powered_error_profile(G, estimate, count):
    """error_profile with growth**n computed afresh for every n, as a reference
    for its running product: same digits, pole, amplitudes and formula."""
    exact = series_terms(G, count)
    digits = Decimal(max(map(abs, exact))).adjusted() + 1 + 25
    lo, hi = refine_root(G.denominator, *estimate.pole_interval, Fraction(1, 10**digits))
    mid = (lo + hi) / 2

    def amplitude(x):
        return -G.numerator(x) / (x * G.denominator.derivative()(x))

    amp_minus = amplitude(-mid) if estimate.has_mirror_pole else Fraction(0)
    out = []
    with localcontext() as ctx:
        ctx.prec = digits
        growth, plus, minus = (
            Decimal(f.numerator) / f.denominator for f in (1 / mid, amplitude(mid), amp_minus)
        )
        for n, c in enumerate(exact, start=1):
            approx = (plus + minus * (-1) ** n) * growth**n
            if c == 0:
                out.append((n, 0.0 if approx == 0 else float("inf")))
            else:
                out.append((n, float(abs(c - approx) / abs(c))))
    return out


class TestErrorProfile:
    def test_final_error_small(self, machine_gf, estimate):
        errors = error_profile(machine_gf, estimate, 30)
        assert errors[-1][0] == 30
        assert errors[-1][1] <= 0.02

    def test_errors_shrink_on_average(self, machine_gf, estimate):
        errors = [err for _, err in error_profile(machine_gf, estimate, 30)]
        # subdominant pole ratio ~0.855; compare geometric means of halves
        first, second = errors[2:16], errors[16:30]
        assert sum(second) / len(second) < sum(first) / len(first)

    def test_no_bound_asserted_at_n1(self, machine_gf, estimate):
        errors = error_profile(machine_gf, estimate, 1)
        assert errors[0][0] == 1
        assert errors[0][1] >= 0

    def test_terms_past_the_int_digit_limit(self, machine_gf, estimate):
        # c_2600 has 675 digits; str() of it fails under a limit of 640
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            capped = error_profile(machine_gf, estimate, 2600)
            sys.set_int_max_str_digits(0)
            assert capped == error_profile(machine_gf, estimate, 2600)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("m", [1, 3, 4, 5])
    def test_running_power_matches_fresh_powers(self, m):
        gf = generating_function(build_general(m))
        estimate = dominant_form(gf)
        assert error_profile(gf, estimate, 300) == powered_error_profile(gf, estimate, 300)


def _closed_form_poles(prec):
    """The canonical gf's dominant pole z and its subdominant pair's z2."""
    with localcontext() as ctx:
        ctx.prec = prec
        return ((Decimal(13).sqrt() - 3) / 2).sqrt(), (Decimal(2).sqrt() - 1).sqrt()


def _closed_form_error(n, c, prec=400):
    """|c_n - estimate(n)| / c_n from the closed-form z and amplitudes."""
    z, _ = _closed_form_poles(prec)
    with localcontext() as ctx:
        ctx.prec = prec
        plus, minus = (
            Decimal(f.numerator) / f.denominator for f in reference_amplitudes(Fraction(z))
        )
        return float(abs(c - (plus + minus * (-1) ** n) / z**n) / c)


class TestLongErrorProfile:
    @pytest.fixture(scope="class")
    def errors(self, machine_gf, estimate):
        return dict(error_profile(machine_gf, estimate, 1187))

    def test_errors_decay_at_the_subdominant_ratio(self, errors):
        # c_n - estimate(n) is the contribution of the poles +-z2
        z, z2 = _closed_form_poles(30)
        ratio = float((z / z2) ** 2)  # 0.73096505096874...
        for n in range(200, 1186):
            assert abs(errors[n + 2] / errors[n] - ratio) <= 1e-9, n

    @pytest.mark.parametrize("n", [30, 100, 400, 1187])
    def test_matches_closed_form_reference(self, machine_gf, errors, n):
        c = series_terms(machine_gf, n)[-1]
        assert errors[n] == pytest.approx(_closed_form_error(n, c), rel=1e-4)


# (growth, amp_plus, amp_minus, has_mirror_pole) and pole_interval of the
# general machines, recorded before dominant_form searched for the smallest
# positive pole alone
GENERAL_ESTIMATES = {
    1: ((1.0, 0.5, 0.5, True), (Fraction(1), Fraction(1))),
    3: ((1.4142135623730951, 2.0, 2.0, True),
        (Fraction(3585457342386312954798844046555, 5070602400912917605986812821504),
         Fraction(112045541949572279837463876455, 158456325028528675187087900672))),
    4: ((1.8173540210239707, 3.5726182589640665, 0.3006935934423546, True),
        (Fraction(2790101621507919254245544932629, 5070602400912917605986812821504),
         Fraction(348762702688489906780693116579, 633825300114114700748351602688))),
    5: ((2.3414980768967273, 1.7653509839979746, 1.7653509839979746, True),
        (Fraction(8662150869896372149288721279835, 20282409603651670423947251286016),
         Fraction(4331075434948186074644360639925, 10141204801825835211973625643008))),
}


# the same for the canonical machines other than m = 4 (the `estimate`
# fixture), recorded while a float root finder still guarded complex poles;
# at m = 3 and 5 the canonical and general gfs share their dominant pole
CANONICAL_ESTIMATES = {
    1: ((1.0, 0.5, 0.5, True), (Fraction(1), Fraction(1))),
    3: ((1.4142135623730951, 1.0, 1.0, True), GENERAL_ESTIMATES[3][1]),
    5: ((2.3414980768967273, 0.8826754919989873, 0.8826754919989873, True),
        GENERAL_ESTIMATES[5][1]),
}


class TestCanonicalMachines:
    @pytest.mark.parametrize("m", sorted(CANONICAL_ESTIMATES))
    def test_estimate_pinned(self, m):
        est = dominant_form(generating_function(build_canonical(m)))
        values, interval = CANONICAL_ESTIMATES[m]
        assert (est.growth, est.amp_plus, est.amp_minus, est.has_mirror_pole) == values
        assert est.pole_interval == interval

    def test_m2_double_pole_refused(self):
        with pytest.raises(UnsupportedPoleShape, match="^dominant pole is not simple$"):
            dominant_form(generating_function(build_canonical(2)))


class TestGeneralMachines:
    @pytest.mark.parametrize("m", sorted(GENERAL_ESTIMATES))
    def test_estimate_pinned(self, m):
        est = dominant_form(generating_function(build_general(m)))
        values, interval = GENERAL_ESTIMATES[m]
        assert (est.growth, est.amp_plus, est.amp_minus, est.has_mirror_pole) == values
        assert est.pole_interval == interval

    def test_m2_double_pole_refused(self):
        with pytest.raises(UnsupportedPoleShape, match="^dominant pole is not simple$"):
            dominant_form(generating_function(build_general(2)))


class TestTallerMachine:
    def test_general_m6_through_integer_algebra(self):
        # build_general caps m at 5; the m = 6 machine is built directly
        alphabet = tuple(range(1 << 6))
        gf = generating_function(automaton._build(6, "general", alphabet, alphabet, 2))
        assert gf.denominator.degree == 52
        terms = series_terms(gf, 8)
        assert terms == [1, 6, 23, 90, 263, 1018, 2947, 11174]
        assert terms[:6] == [oracle.count_report(6, n).cuts for n in range(1, 7)]
        est = dominant_form(gf)
        assert abs(est.growth - 3.0676305996) < 1e-10
        # recorded while the gcds still ran rational Euclid
        assert est.pole_interval == (
            Fraction(94786061956882257530793602656448945, 290768624077950347197707794436325376),
            Fraction(5924128872305141095674600166037425, 18173039004871896699856737152270336),
        )
