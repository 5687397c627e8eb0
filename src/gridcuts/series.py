"""Exact polynomial and rational-function arithmetic for the counting series.

Polynomial coefficients are Python ints; Fractions appear only as the
points a polynomial is evaluated at and as the values it takes there.  The
generating function of a machine with S states and transfer matrix T is

    G(x) = x^2 * s (I - x^2 T)^(-1) a_even  +  x * s (I - x^2 T)^(-1) a_odd,

with s the start indicator: each symbol of a word covers two columns of the
finished board except that the final symbol of an odd-width word covers one.
T is held as sparse rows, row i the (j, count) pairs with count > 0, and
vector iteration, lumping and the LCM read only those rows: no dense S x S
table is built on the way to G.

G is read from the lumped matrix L instead of T (Kemeny & Snell, Finite
Markov Chains, sec. 6.3).  `lumped` finds the coarsest partition of the
states into r blocks on which both accept vectors are constant and every
state of a block has the same number of transitions into each block.  With
U the S x r membership matrix, that says T U = U L and a = U a_L for both
accept vectors, so s T^k a = s T^k U a_L = (s U) L^k a_L for every k: L
counts exactly what T counts, with r <= S states (7 for the 9 of canonical
m = 4, and 70 for the 254 of general m = 7).

G is found by guess-and-certify instead of by solving that linear system.
Integer vector iteration (s U) L^k gives the exact counts c_0 .. c_{4r+3},
and Berlekamp-Massey finds the shortest linear recurrence they satisfy, i.e.
a rational function P/Q with Q(0) != 0 whose series starts with those
counts.  By Cramer's rule on I - x^2 L both the numerator and the
denominator of G have degree at most 2r, and its denominator det(I - x^2 L)
has constant term 1.  Two such functions that agree on 4r+1 coefficients
are equal: P1 Q2 - P2 Q1 has degree at most 4r and vanishes mod x^(4r+1).
So once the guess is checked to obey the degree bound and to reproduce
every computed count, it is G.  The
resolvent-denominator LCM is grown the same way, one certified fit at a
time, until it annihilates T (proof in `resolvent_denominator_lcm`).
These Berlekamp-Massey certificates are the one exact-algebra mechanism: no
determinant is ever computed, by elimination or otherwise.

A certified fit is in lowest terms by Berlekamp-Massey minimality (proof in
`certified_series`), so neither the gf nor the LCM computes a gcd.  A
`RationalFunction` puts itself in normal form when it is constructed:
coprime contents and a positive leading denominator coefficient.  Equality
of generating functions is then a literal coefficient comparison and no
consumer normalizes again.  Polynomial gcds are left to `asymptotics`, and
they never leave the integers: `Polynomial.gcd` runs one primitive
pseudo-remainder sequence (Brown & Traub 1971).

Every gf here counts boards, so its power series has integer coefficients,
and `series_terms` checks that by one test on the denominator.  A coprime
N/D in normal form has an integer power series exactly when D(0) = +-1.
If D(0) = +-1, the recurrence D(0) c_n = N_n - sum_{i>=1} D_i c_{n-i}
divides by +-1.  Conversely, by Fatou's lemma (Acta Math. 30, 1906) an
integer power series that is rational equals P/Q with P, Q in Z[x] coprime
and Q(0) = 1.  Lowest terms are unique up to a scalar, so N = lam P and
D = lam Q for a rational lam.  The joint content of P and Q divides
Q(0) = 1, and that of N and D is 1, so lam = +-1 and D(0) = +-1.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd as int_gcd
from typing import Iterable, Sequence

from .automaton import TransferMatrix, transfer_matrix
from .errors import GridcutsError

__all__ = [
    "InexactError",
    "Polynomial",
    "RationalFunction",
    "Recurrence",
    "certified_series",
    "lumped",
    "recurrence_of",
    "resolvent_denominator_lcm",
    "series_terms",
]

class InexactError(GridcutsError, ArithmeticError):
    """An exact computation met a value it cannot represent: a certificate
    failed, a division was inexact, or a series was not integral."""


class Polynomial:
    """Dense univariate integer polynomial; coeffs[i] is the degree-i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        items = list(coeffs)
        for c in items:
            if not isinstance(c, int):
                raise TypeError(f"polynomial coefficients are ints, got {c!r}")
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    ONE: "Polynomial"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def pseudo_remainder(self, other: "Polynomial") -> "Polynomial":
        """Remainder of |lc(other)|^(d+1) * self by other, d = deg self - deg
        other (self when d < 0): a positive multiple of the rational remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead, top = other.leading(), other.degree
        rem = list(self.coeffs)
        while len(rem) > top:
            # |lead| * rem - sign(lead) * c * x^shift * other cancels the top term c
            c = rem.pop() if lead > 0 else -rem.pop()
            rem = [abs(lead) * r for r in rem]
            shift = len(rem) - top
            for j, b in enumerate(other.coeffs[:-1]):
                rem[shift + j] -= c * b
        return Polynomial(rem)

    def divexact(self, other: "Polynomial") -> "Polynomial":
        """The integer polynomial q with q * other == self; InexactError when
        there is none."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, lead, top = list(self.coeffs), other.leading(), other.degree
        quot = [0] * max(len(rem) - top, 0)
        for i in reversed(range(len(quot))):
            # a nonzero remainder left at i + top is never touched again
            quot[i] = rem[i + top] // lead
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= quot[i] * b
        if any(rem):
            raise InexactError(f"{self} is not divisible by {other} over the integers")
        return Polynomial(quot)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: int | Fraction) -> int | Fraction:
        if isinstance(x, Fraction):
            # Horner on q^d * self(p/q) = sum c_i p^i q^(d-i): integers only,
            # and one reduction at the end instead of a gcd per step
            p, q = x.numerator, x.denominator
            value, power = 0, 1
            for c in reversed(self.coeffs):
                value = value * p + c * power
                power *= q
            # power is now q^(d+1)
            return Fraction(value * q, power)
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def primitive(self) -> "Polynomial":
        """self over its content, signed so the leading coefficient is positive."""
        content = int_gcd(*self.coeffs)
        if not content:
            return self
        if self.coeffs[-1] < 0:
            content = -content
        return Polynomial([c // content for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Greatest common divisor over the rationals, as a primitive integer
        polynomial with positive leading coefficient (zero for two zeros)."""
        # dividing out each remainder's content keeps the coefficients small
        a, b = self.primitive(), other.primitive()
        while not b.is_zero():
            a, b = b, a.pseudo_remainder(b).primitive()
        return a

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


Polynomial.ONE = Polynomial([1])


def product(polys: Iterable[Polynomial]) -> Polynomial:
    out = Polynomial.ONE
    for p in polys:
        out = out * p
    return out


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of integer polynomials, in the normal form the constructor
    establishes: the joint content is divided out and the leading
    denominator coefficient is made positive; a zero numerator gives 0/1 and
    a zero denominator raises ZeroDivisionError.

    Precondition: the arguments are coprime, as every `generating_function`
    result is (see `certified_series`).  The constructor cancels no common
    factor, so only for coprime arguments is the form unique, and only then
    does `series_terms`' test D(0) = +-1 decide integrality."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        numerator, denominator = self.numerator, self.denominator
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        if numerator.is_zero():
            denominator = Polynomial.ONE
        else:
            content = int_gcd(*numerator.coeffs, *denominator.coeffs)
            if denominator.leading() < 0:
                content = -content
            numerator = Polynomial([c // content for c in numerator.coeffs])
            denominator = Polynomial([c // content for c in denominator.coeffs])
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def to_json_dict(self) -> dict:
        return {
            "numerator": list(self.numerator.coeffs),
            "denominator": list(self.denominator.coeffs),
        }

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


def _berlekamp_massey(terms: Sequence[int]) -> tuple[list[int], int]:
    """Shortest linear recurrence of `terms`: (connection polynomial, length).

    Massey's algorithm over the rationals, kept fraction-free: each update
    b*C - d*x^shift*B is scaled by the previous discrepancy b instead of
    dividing by it, and the common content is divided out, which changes C
    only by a rational factor.  The result C has integer coefficients and
    C[0] != 0, and sum_i C[i] * terms[n - i] == 0 for length <= n < len(terms).
    """
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for n, term in enumerate(terms):
        disc = conn[0] * term
        for i in range(1, min(len(conn), n + 1)):
            disc += conn[i] * terms[n - i]
        if disc == 0:
            shift += 1
            continue
        new = [prev_disc * c for c in conn]
        new += [0] * (len(prev) + shift - len(new))
        for i, b in enumerate(prev):
            new[i + shift] -= disc * b
        content = int_gcd(*new)  # >= 1: new[0] = prev_disc * conn[0] != 0
        new = [c // content for c in new]
        if 2 * length <= n:
            prev, prev_disc, length, shift = conn, disc, n + 1 - length, 1
        else:
            shift += 1
        conn = new
    return conn, length


def certified_series(terms: Sequence[int], degree_bound: int) -> tuple[Polynomial, Polynomial]:
    """The unique (P, Q) with deg P, deg Q <= degree_bound and Q(0) != 0
    whose power series P/Q begins with `terms`.

    Uniqueness is what makes the guess a proof: if the true function also
    obeys the bound, the two agree on 2*degree_bound + 1 coefficients and so
    coincide.  Raises ValueError when fewer terms are given, and
    InexactError when the shortest fit exceeds the bound; given at least
    2*degree_bound + 2 terms, that means no function within the bound fits.

    P and Q are coprime.  Berlekamp-Massey returns Q with Q(0) != 0 and
    deg Q <= L, L the length of the shortest recurrence of the K given
    terms T; P = Q T mod x^L has deg P < L, and Q T == P mod x^K is checked.
    Were g = gcd(P, Q) of degree >= 1, then g(0) != 0 makes g a unit of the
    power series, so Q/g and P/g would fit the same K terms with a
    recurrence of length <= L - deg g < L, against the minimality of L.
    Scaling Q by an integer (a machine's divisor) and dividing out the joint
    content keeps them coprime, so every `generating_function` result is in
    lowest terms without a gcd being computed.
    """
    if degree_bound < 0 or len(terms) < 2 * degree_bound + 1:
        raise ValueError(
            f"certifying degree <= {degree_bound} needs {2 * degree_bound + 1} "
            f"terms, got {len(terms)}"
        )
    conn, length = _berlekamp_massey(terms)
    den = Polynomial(conn)
    convolved = [
        sum(conn[i] * terms[n - i] for i in range(min(len(conn), n + 1)))
        for n in range(len(terms))
    ]
    num = Polynomial(convolved[:length])
    if num.degree > degree_bound or den.degree > degree_bound:
        raise InexactError(
            f"shortest rational fit of the terms exceeds degree {degree_bound}: "
            f"numerator degree {num.degree}, denominator degree {den.degree}"
        )
    if any(convolved[length:]):
        raise InexactError("guessed rational function does not reproduce the terms")
    return num, den


def _step(vec: list[int], rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Row vector times matrix, over the matrix's sparse rows."""
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        if v:
            for j, w in rows[i]:
                out[j] += v * w
    return out


def _board_counts(T: TransferMatrix, count: int) -> list[int]:
    """Coefficients c_0 .. c_{count-1} of the machine gf, by vector iteration.

    With v = s T^(k-1), width 2k-1 is counted by v . a_odd and width 2k by
    v . a_even; width 0 has no word.
    """
    vec = list(T.start_vector)
    out = [0]
    while len(out) < count:
        out.append(sum(v * a for v, a in zip(vec, T.accept_odd_vector)))
        out.append(sum(v * a for v, a in zip(vec, T.accept_even_vector)))
        vec = _step(vec, T.rows)
    return out[:count]


def _relabel(keys: Iterable) -> tuple[list[int], int]:
    """Each key's block number, blocks numbered by first occurrence, and the
    number of blocks."""
    number: dict = {}
    return [number.setdefault(key, len(number)) for key in keys], len(number)


def lumped(T: TransferMatrix) -> TransferMatrix:
    """T on the coarsest partition of its states where both accept vectors
    are constant on each block and every state of a block has the same
    number of transitions into each block (ordinary lumpability).

    Refinement starts from the blocks of (accept_even, accept_odd) and
    regroups the states by (block, counts into each block) until the block
    count stops growing.  L[B][B'] sums row rep(B) of T over B', the start
    vector is summed over each block, and the accept vectors are read at each
    block's representative, its first state.
    """
    accepts = list(zip(T.accept_even_vector, T.accept_odd_vector))
    block, size = _relabel(accepts)
    while True:
        into = []
        for row in T.rows:
            counts: dict[int, int] = {}
            for j, w in row:
                counts[block[j]] = counts.get(block[j], 0) + w
            into.append(tuple(sorted(counts.items())))
        refined, grown = _relabel(zip(block, into))
        if grown == size:
            break
        block, size = refined, grown
    rep = [0] * size
    for i in reversed(range(len(block))):
        rep[block[i]] = i
    # lumpable: T U = U L for the membership matrix U, so s T^k a = (s U) L^k a_L
    assert all(
        into[i] == into[rep[b]] and accepts[i] == accepts[rep[b]] for i, b in enumerate(block)
    ), "the partition is not lumpable"
    start = [0] * size
    for i, v in enumerate(T.start_vector):
        start[block[i]] += v
    return TransferMatrix(
        rows=tuple(into[r] for r in rep),
        start_vector=tuple(start),
        accept_even_vector=tuple(accepts[r][0] for r in rep),
        accept_odd_vector=tuple(accepts[r][1] for r in rep),
    )


def _certified_gf(T: TransferMatrix) -> tuple[Polynomial, Polynomial]:
    """Generating function (N, D) of a transfer matrix, before normal form.

    A word of k symbols encodes a board of width 2k (counted by the even
    accept vector, weight x^2 per symbol) or width 2k-1 (odd accept vector,
    where the middle column contributes a single x).  Guessed from 4r+4
    counts, r the order of T, and certified by the degree bound 2r; see the
    module docstring.
    """
    bound = 2 * T.order
    return certified_series(_board_counts(T, 2 * bound + 4), bound)


@cache
def generating_function(automaton) -> RationalFunction:
    """Machine gf over its divisor (general machines read each cut twice),
    certified from the lumped transfer matrix, whose counts are the
    machine's (see `lumped`), coprime by `certified_series` and put in
    normal form once.  Cached per process: a machine and its gf are
    immutable values, so equal machines share one certified gf."""
    num, den = _certified_gf(lumped(transfer_matrix(automaton)))
    return RationalFunction(num, den * automaton.divisor)


def resolvent_denominator_lcm(T: TransferMatrix) -> Polynomial:
    """LCM of the reduced entry denominators of (I - xT)^(-1), as a primitive
    positive-lead integer polynomial, from Berlekamp-Massey fits alone.

    Entry (i, j) is F_ij = sum_k (T^k)_ij x^k = P_ij / Q_ij in lowest terms.
    For L of degree d and its reversal L*(t) = t^d L(1/t), coefficient d + k
    of L F_ij is u_k = (e_i L*(T) T^k)_j, whose series is a rational function
    of numerator degree < S and denominator degree <= S (Cramer), so
    `certified_series` fits it from u_0..u_2S.  That series is L F_ij less a
    polynomial, over x^d.  L F_ij = (L/g) P_ij / R with g = gcd(L, Q_ij) and
    R = Q_ij / g coprime to L/g and to P_ij, so R (R(0) != 0) is its reduced
    denominator.  A fit is coprime by minimality (see `certified_series`), so
    its denominator is a multiple of R, and L R = lcm(L, Q_ij): no gcd is
    computed.

    L thus divides the LCM, of degree <= S.  If u_S != 0 the series is no
    polynomial of degree < S, so R is not constant and the fit raises deg L:
    there are at most S fits.  Once e_i L*(T) T^S = 0 for every row i, every
    L F_ij is a polynomial, so every Q_ij divides L, and L is the LCM.
    """
    size, rows = T.order, T.rows
    lcm = Polynomial.ONE
    for i in range(size):
        while True:
            # e_i L*(T) by Horner, then its orbit under T up to the check at k = S
            vec = [0] * size
            for c in lcm.coeffs:
                vec = _step(vec, rows)
                vec[i] += c
            orbit = [vec]
            for _ in range(size):
                orbit.append(_step(orbit[-1], rows))
            j = next((j for j, u in enumerate(orbit[-1]) if u), None)
            if j is None:
                break
            for _ in range(size):
                orbit.append(_step(orbit[-1], rows))
            lcm = lcm * certified_series([v[j] for v in orbit], size)[1]
    return lcm.primitive()


def _taps(den: Sequence[int]) -> list[tuple[int, int]]:
    return [(i, c) for i, c in enumerate(den) if i and c]


def _stripped_taps(den: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """The taps to recur on for a denominator with den[0] = 1, and the number
    k of running sums to take after: those of E and k when den = (1 - x)^k E
    with 1 - x no factor of E and taps(E) + k < taps(den), else den's and 0."""
    quot, strip = den, 0
    while sum(quot) == 0:  # 1 - x divides quot: divide by synthetic division
        quot, strip = list(accumulate(quot))[:-1], strip + 1
    taps, quot_taps = _taps(den), _taps(quot)
    return (quot_taps, strip) if len(quot_taps) + strip < len(taps) else (taps, 0)


def series_terms(G: RationalFunction, count: int) -> list[int]:
    """Exact coefficients c_1..c_count of the power series of G.

    Requires D(0) = +-1, where the series is integral (theorem in the module
    docstring), and refuses any other D(0) before a term is computed.  Runs
    the linear recurrence given by the denominator in integers over its
    nonzero taps.

    Every factor 1 - x is divided out of D = (1 - x)^k E.  When E has fewer
    taps than D by more than k, the recurrence runs on N/E, and k running
    sums from c_0 then give N/D: both m = 4 gfs take 4 multiply-adds and 2
    additions a term instead of 10.  This stays exact: E(0) = D(0) = 1, so
    N/E is an integer series, and so is each running sum of it.
    """
    num, den = G.numerator.coeffs, G.denominator.coeffs
    if not den or den[0] == 0:
        raise ValueError("denominator must have a nonzero constant term")
    if abs(den[0]) != 1:
        raise InexactError(f"D(0) = {den[0]} is not +-1, so the series is not integral")
    if den[0] < 0:  # G = -num / -den
        num, den = [-c for c in num], [-c for c in den]
    taps, strip = _stripped_taps(den)
    out = [num[0] if num else 0]  # c_0 .. c_count
    for n in range(1, count + 1):
        acc = num[n] if n < len(num) else 0
        for i, c in taps:
            if i > n:
                break
            acc -= c * out[n - i]
        out.append(acc)
    for _ in range(strip):
        acc = 0
        for n, c in enumerate(out):
            acc += c
            out[n] = acc
    del out[0]
    return out


@dataclass(frozen=True)
class Recurrence:
    """Constant-coefficient recurrence satisfied by the series of a gf.

    sum(coefficients[i] * c[n-i] for i in 0..order) == 0 for n >= valid_from,
    with c[k] = 0 for k < 0.  `initial` pins c_0 .. c_{valid_from - 1}.
    """

    coefficients: tuple[int, ...]
    valid_from: int
    initial: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coefficients": list(self.coefficients),
            "valid_from": self.valid_from,
            "initial": list(self.initial),
        }


@contextlib.contextmanager
def _exact_digits():
    """Lift Python's int-to-str digit limit while exact terms are formatted.

    The limit guards parsing untrusted text; the terms printed here are
    exact and computed, and far enough out they run past 4300 digits.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def format_bfile(terms: Sequence[int]) -> str:
    """OEIS b-file lines: "n value" from n = 1, consecutive, newline-terminated."""
    with _exact_digits():
        return "".join(f"{n} {value}\n" for n, value in enumerate(terms, start=1))


def recurrence_of(G: RationalFunction) -> Recurrence:
    """Recurrence read off the denominator of a gf.  Precondition: numerator
    and denominator are coprime, as every `generating_function` result is;
    otherwise the recurrence holds but is not the shortest.  `series_terms`
    refuses a D(0) other than +-1, so c_0 = N(0) / D(0) = N(0) * D(0)."""
    valid_from = max(G.numerator.degree + 1, 1)
    initial = series_terms(G, valid_from - 1)
    return Recurrence(
        coefficients=G.denominator.coeffs,
        valid_from=valid_from,
        initial=(G.numerator.constant() * G.denominator.constant(), *initial),
    )
