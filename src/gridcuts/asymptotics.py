"""Dominant-pole asymptotics with a certified smallest positive pole.

The coefficient growth of a rational generating function is controlled by
the smallest-modulus zeros of its denominator D.  The smallest positive pole
z is a root of the squarefree part S = D/gcd(D, D'), found by one descent
over the dyadic cells of (0, B], B the Cauchy bound of S (Collins & Akritas,
SYMSAC 1976; Rouillier & Zimmermann, J. Comput. Appl. Math. 162, 2004).
Each cell is an integer polynomial, and Descartes' rule of signs bounds the
roots in it: the walk goes left first, skips the cells whose count is 0,
and stops at the first count of 1, which means exactly one root there, and
a simple one.  Bisection refines that root on the same grid, with both ends
over one common denominator.  The reported interval is certified: S changes
sign across it and it contains exactly one root, or it is the point z
itself (the rule is in `AsymptoticEstimate.pole_interval`).  Whether z is a
multiple pole, and whether -z is a pole too, are each a gcd with S and a
sign test across that interval.

Supported pole shapes: a single simple positive dominant pole z, or a simple
real pair +-z.  The amplitude at a simple pole r of N/D is -N(r)/(r D'(r)),
so the two-term estimate is

    c_n ~ amp_plus * z^(-n) + amp_minus * (-z)^(-n)
        = A (1 + B (-1)^n) z^(-n),        A = amp_plus, B = amp_minus/A.

A repeated dominant pole raises UnsupportedPoleShape.  No other pole can
share the circle |x| = z, and none lies inside it, when G is a machine gf,
G = x^2 s (I - x^2 T)^(-1) a_even + x s (I - x^2 T)^(-1) a_odd (see
`series`).  Two classical theorems make the estimate exact end to end
(Flajolet & Sedgewick, Analytic Combinatorics, chs. IV and V; Seneta,
Non-negative Matrices, ch. 1):

- No pole inside the circle.  A power series with nonnegative coefficients
  has its radius of convergence R as a singularity (Pringsheim), so the
  rational G has R as a pole and no pole with |x| < R.  The smallest
  positive pole that the descent certifies is R.
- No complex pole on the circle.  Every pole x has x^2 = 1/lambda for an
  eigenvalue lambda of T.  Every state of a built machine is reachable from
  a start and can reach acceptance, so R = rho(T)^(-1/2).  Every state has
  a self-loop (asserted where machines are built), so every cyclic
  component is aperiodic, and by Perron-Frobenius the only eigenvalue of
  modulus rho(T) is rho(T) itself.  The only poles on |x| = R are then +-R,
  and whether -R is one is decided exactly.

The nonnegativity premise is checked exactly: a negative coefficient among
c_0..c_(deg N + deg D), which determine G, raises UnsupportedPoleShape.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import GridcutsError
from .series import Polynomial, RationalFunction, series_terms

__all__ = [
    "AsymptoticEstimate",
    "UnsupportedPoleShape",
    "dominant_form",
    "error_profile",
    "refine_root",
]

_REFINE_WIDTH = Fraction(1, 10**30)
_REFERENCE_TOLERANCE = 1e-6


class UnsupportedPoleShape(GridcutsError, ValueError):
    """The dominant poles are not a simple real z or pair +-z, or G has a
    negative coefficient and so is no counting series."""


def _sign_at(coeffs: Sequence[int], a: int, q: int, shift: int) -> int:
    """Sign of p(a/Q) for Q = q * 2^shift, by homogeneous Horner in ints."""
    # Q^d p(a/Q) = sum c_i a^i Q^(d-i); the powers of 2^shift are shifts
    value, power, bits = 0, 1, 0
    for c in reversed(coeffs):
        value = value * a + (c * power << bits)
        power *= q
        bits += shift
    return (value > 0) - (value < 0)


def _shift(q: Sequence[int]) -> list[int]:
    """Coefficients of q(y + 1), by Taylor shift in additions only."""
    out = list(q)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += out[k + 1]
    return out


def _descartes(q: Sequence[int]) -> int:
    """Sign variations of (1 + y)^d q(1/(1 + y)), Descartes' bound on the
    roots of q in (0, 1) counted with multiplicity: it has their parity,
    and it is exact when it is 0 or 1."""
    signs = [c > 0 for c in _shift(q[::-1]) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(p: Polynomial) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in p.coeffs), abs(p.leading()))


def refine_root(p: Polynomial, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change bracket below `width` by bisection.

    Refinement only ever subdivides, so intervals from successively smaller
    widths are nested.
    """
    # the ends are a/Q, b/Q with Q = q * 2^k, so halving only increments k
    q, k = lcm(lo.denominator, hi.denominator), 0
    a, b = lo.numerator * q // lo.denominator, hi.numerator * q // hi.denominator
    s_lo = _sign_at(p.coeffs, a, q, k)
    if s_lo == 0:
        return lo, lo
    if _sign_at(p.coeffs, b, q, k) == 0:
        return hi, hi
    while (b - a) * width.denominator >= (width.numerator * q) << k:
        mid, a, b, k = a + b, 2 * a, 2 * b, k + 1
        s_mid = _sign_at(p.coeffs, mid, q, k)
        if s_mid == 0:
            return Fraction(mid, q << k), Fraction(mid, q << k)
        if s_mid == s_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, q << k), Fraction(b, q << k)


def _leftmost_root(sqf: Polynomial) -> tuple[Fraction, Fraction] | None:
    """Certified bracket of the smallest positive root of the squarefree sqf,
    narrower than 10^-30, or None when it has none; sqf(0) != 0.

    A depth-first walk over the dyadic cells (j, j+1) B/2^k of (0, B], B the
    Cauchy bound, left half first, so every cell before the current one holds
    no root.  The cell is read on (0, 1) as q(y) = 2^(kd) sqf(B (j + y)/2^k)
    times B's denominator to the d: its left half is 2^d q(y/2), and its
    right half that at y + 1.  At a Descartes count of 0 the cell holds no
    root, and if its right end is one (q(1) = 0) that end is z.  At a count
    of 1 with q(1) != 0 the cell holds z, simple, and bisection refines it on
    the same grid.  Any other cell is halved.
    """
    bound, d = _root_bound(sqf), sqf.degree
    n, m = bound.numerator, bound.denominator
    cells = [(0, 0, [c * n**i * m ** (d - i) for i, c in enumerate(sqf.coeffs)])]
    while cells:
        k, j, q = cells.pop()
        if j % 2:
            q = _shift(q)  # a right half, shifted only when it is reached
        count, end_is_root = _descartes(q), sum(q) == 0
        if count == 0 and not end_is_root:
            continue
        hi = bound * (j + 1) / 2**k
        if count == 0:
            return hi, hi
        if count == 1 and not end_is_root:
            return refine_root(sqf, bound * j / 2**k, hi, _REFINE_WIDTH)
        left = [c << (d - i) for i, c in enumerate(q)]
        cells += [(k + 1, 2 * j + 1, left), (k + 1, 2 * j, left)]
    return None


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Two-term coefficient estimate from the dominant pole(s).

    `pole_interval` certifies z.  It is the dyadic cell (j, j+1) B/2^k of
    (0, B], B the Cauchy bound of D's squarefree part, that contains z at the
    first level k with B/2^k < 10^-30, or (z, z) when z is a point of that
    grid.  A deeper cell is returned only when another root of D lies within
    2 * 10^-30 of z.  Floats are rounded from rational midpoints of intervals
    refined far below the display precision.
    """

    pole_interval: tuple[Fraction, Fraction]
    z: float
    growth: float
    amp_plus: float
    amp_minus: float
    has_mirror_pole: bool
    exact_check: bool | None = None

    @property
    def amplitude(self) -> float:
        """A in c_n ~ A (1 + B (-1)^n) growth^n."""
        return self.amp_plus

    @property
    def alternation(self) -> float:
        """B in c_n ~ A (1 + B (-1)^n) growth^n."""
        return self.amp_minus / self.amp_plus

    def predict(self, n: int) -> float:
        return (self.amp_plus + self.amp_minus * (-1) ** n) * self.growth**n

    def to_json_dict(self, errors: list[tuple[int, float]] | None = None) -> dict:
        data = {
            "z_inv": self.growth,
            "A": self.amplitude,
            "B": self.alternation,
            "exact_check": self.exact_check,
        }
        if errors is not None:
            data["errors"] = [[n, err] for n, err in errors]
        return data


def dominant_form(
    G: RationalFunction,
    *,
    amplitude_reference: Callable[[Fraction], tuple[Fraction, Fraction]] | None = None,
) -> AsymptoticEstimate:
    """Locate the dominant pole(s) of G and compute the two-term estimate.

    When `amplitude_reference` is given (closed-form amplitudes as a function
    of z), the result carries `exact_check`: both computed amplitudes agree
    with the closed forms within 1e-6.  Precondition: G is a machine gf, as
    every `generating_function` result is.  Its numerator and denominator
    are coprime, so each zero of the denominator is a pole, and the module
    docstring proves that z, and -z when it is a pole, are then the only
    poles on or inside |x| = z.  So the estimate is exact apart from the
    final rounding to floats.  A negative coefficient among the first
    deg N + deg D + 1, which determine G, is refused.
    """
    den = G.denominator
    if den.constant() == 0:
        raise UnsupportedPoleShape("pole at 0")
    head = series_terms(G, G.numerator.degree + den.degree)
    if G.numerator.constant() * den.constant() < 0 or min(head, default=0) < 0:
        raise UnsupportedPoleShape("a coefficient is negative: not a counting series")

    multiple = den.gcd(den.derivative())
    sqf = den.divexact(multiple)
    bracket = _leftmost_root(sqf)
    if bracket is None:
        raise UnsupportedPoleShape("no positive real pole")
    lo, hi = bracket
    mid = (lo + hi) / 2

    if _has_root_in(multiple, sqf, lo, hi):
        raise UnsupportedPoleShape("dominant pole is not simple")
    # -z is a pole iff D(-x) vanishes at z
    mirror = Polynomial([c if i % 2 == 0 else -c for i, c in enumerate(den.coeffs)])
    has_mirror = _has_root_in(mirror, sqf, lo, hi)
    amp_plus_exact = _amplitude(G, mid)
    amp_minus_exact = _amplitude(G, -mid) if has_mirror else Fraction(0)

    exact_check: bool | None = None
    if amplitude_reference is not None:
        ref_plus, ref_minus = amplitude_reference(mid)
        exact_check = (
            abs(amp_plus_exact - ref_plus) <= _REFERENCE_TOLERANCE
            and abs(amp_minus_exact - ref_minus) <= _REFERENCE_TOLERANCE
        )

    return AsymptoticEstimate(
        pole_interval=(lo, hi),
        z=float(mid),
        growth=float(1 / mid),
        amp_plus=float(amp_plus_exact),
        amp_minus=float(amp_minus_exact),
        has_mirror_pole=has_mirror,
        exact_check=exact_check,
    )


def _has_root_in(p: Polynomial, sqf: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether p vanishes at the one root of the squarefree sqf in [lo, hi].

    g = gcd(p, sqf) divides sqf, so that simple root is the only one g can
    have there, and g has it iff g(lo) and g(hi) differ in sign or vanish.
    """
    g = p.gcd(sqf)
    return g(lo) * g(hi) <= 0


def _amplitude(G: RationalFunction, x: Fraction) -> Fraction:
    """-N(x)/(x D'(x)), the amplitude of G = N/D at a simple pole x."""
    return -G.numerator(x) / (x * G.denominator.derivative()(x))


def error_profile(
    G: RationalFunction, estimate: AsymptoticEstimate, count: int
) -> list[tuple[int, float]]:
    """Relative error |c_n - estimate(n)| / c_n for n = 1..count.

    The estimate is evaluated in decimal with 25 digits more than the
    largest c_n has, from the pole refined to that width and the amplitudes
    recomputed there, so the error reported is the estimate's and not float
    rounding.  Terms that are exactly zero get an infinite relative error
    unless the estimate is also zero there.
    """
    exact = series_terms(G, count)
    # the digit count of the largest |c_n|; Decimal(int) is exact and does not
    # go through str() and its 4300-digit limit
    digits = Decimal(max(map(abs, exact), default=0)).adjusted() + 1 + 25
    lo, hi = refine_root(G.denominator, *estimate.pole_interval, Fraction(1, 10**digits))
    mid = (lo + hi) / 2
    amp_plus = _amplitude(G, mid)
    amp_minus = _amplitude(G, -mid) if estimate.has_mirror_pole else Fraction(0)
    out = []
    with localcontext() as ctx:
        ctx.prec = digits
        growth, plus, minus = (
            Decimal(f.numerator) / f.denominator for f in (1 / mid, amp_plus, amp_minus)
        )
        power = Decimal(1)
        for n, c in enumerate(exact, start=1):
            power *= growth  # growth**n; its n roundings stay within the 25 guard digits
            approx = (plus + minus * (-1) ** n) * power
            if c == 0:
                err = 0.0 if approx == 0 else float("inf")
            else:
                err = float(abs(c - approx) / abs(c))
            out.append((n, err))
    return out
