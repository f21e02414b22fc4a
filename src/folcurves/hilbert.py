"""Hilbert numerators, the coefficients of HS(S/I) * (1-t)^4, each a
_series: that of a monomial ideal, by the colon recursion of
_minimal_numerator, and the Koszul, line and conormal lower bounds that
groebner's Hilbert walk and section's certificates take (proven there).
The Hilbert function and the Hilbert polynomial are read off them.
Monomials are polyring's packed exponent vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from math import comb

from .polyring import (NVARS, _FIELD, _GUARD, _nonzero_fields, _signed_sum,
                       graded_piece_dimension, mono_degree)
from .records import FrozenRecord


def _series(terms) -> dict:
    """The sums of the coefficients of the (exponent, coefficient) pairs
    terms, by exponent, the nonzero ones keyed by ascending exponent: the
    one form of every numerator in t here."""
    sums = {}
    for a, c in terms:
        sums[a] = sums.get(a, 0) + c
    return {a: sums[a] for a in sorted(sums) if sums[a]}


def _ci_numerator(degrees) -> dict:
    """prod(1 - t^e for e in degrees), a _series of its 2^len(degrees)
    expanded terms (every caller passes at most four degrees): the
    numerator of HS(S/I) * (1-t)^4 when forms of these degrees are a
    regular sequence ((1-t)^2 (1-t^2) has no key t^2)."""
    terms = [(0, 1)]
    for e in degrees:
        terms += [(a + e, -c) for a, c in terms]
    return _series(terms)


def _line_bound(degrees) -> dict:
    """N(t), a _series: for three forms of these degrees in a coordinate
    line ideal P, N(t) / (1-t)^4 is a coefficientwise lower bound for
    HS(S/I), and HS(S/I) itself when the Buchsbaum-Rim complex resolves
    P/I (see folcurves.section).  With C = (2, d1, d2, d3) and
    s = d1 + d2 + d3, N = 1 + t^2 + sum over c in C of (t^(s-c) - t^c) -
    2t^(s-1)."""
    s, C = sum(degrees), (2, *degrees)
    return _series([(0, 1), (2, 1), (s - 1, -2), *((s - c, 1) for c in C),
                    *((c, -1) for c in C)])


def _conormal_bound(c_a: int, c_b: int) -> dict:
    """The conormal bound's N(t), a _series, for 1-forms with coefficients
    of degrees c_a and c_b (see folcurves.section)."""
    d = c_a + c_b - 1
    return _series([(0, 1), (d + 1, -6), (d + 2, 4), (d + 3, -1), (d + c_a, 1), (d + c_b, 1)])


def _ci_hilbert_function(numerator, d: int) -> int:
    """Coefficient of t^d in numerator / (1 - t)^4: dim (S/I)_d for the
    hilbert_numerator of I.  For the _ci_numerator of some degrees, a lower
    bound for it whenever at most four forms of these degrees generate I,
    met when they are a regular sequence (see groebner)."""
    return sum(c * graded_piece_dimension(d - a) for a, c in numerator.items())


def _hilbert_values(numerator):
    """An iterator of _ci_hilbert_function(numerator, d), d = 0, 1, 2, ...:
    dividing by 1 - t takes running sums of the coefficients, so four
    running sums of numerator's give those of numerator / (1 - t)^4."""
    values = map(numerator.get, count(), repeat(0))  # its coefficients, t^0 first
    for _ in range(4):
        values = accumulate(values)
    return values


def _minimalize(gens):
    """The minimal generators of the monomial ideal that the packed
    monomials gens generate, ascending.  A proper divisor is smaller than its
    multiple, so in ascending order each monomial meets its divisors first."""
    out = []
    for g in sorted(set(gens)):
        for h in out:
            if not (g - h) & _GUARD:  # _divides(h, g), inline; h < g
                break
        else:
            out.append(g)
    return tuple(out)


def _pivot(gens, mixed):
    """(v, k, J : v^k) for the minimal generators gens of J, mixed those
    with more than one variable: v is the variable in most mixed generators,
    the first on ties, k its least positive exponent in gens, and J : v^k
    its minimal generators, ascending.  No generator h without v divides a
    g / v^k (it would divide g), so only the h are checked against those."""
    counts = [sum(1 for g in mixed if g >> 32 * v & _FIELD) for v in range(NVARS)]
    v = max(range(NVARS), key=counts.__getitem__)
    k = min(e for e in (g >> 32 * v & _FIELD for g in gens) if e)
    power = k << 32 * v
    quotients = [g - power for g in gens if g >> 32 * v & _FIELD]
    kept = [h for h in gens if not h >> 32 * v & _FIELD
            and not any(q < h and not (h - q) & _GUARD for q in quotients)]
    return v, k, tuple(sorted(quotients + kept))


def _plus(gens, v, k):
    """The minimal generators of J + v^k, ascending, for J's minimal
    generators gens (no 1 among them) and k at most the least positive
    exponent of v: no generator without v divides v^k or is divided by it."""
    return tuple(sorted([g for g in gens if not g >> 32 * v & _FIELD] + [k << 32 * v]))


@lru_cache(maxsize=None)
def _minimal_numerator(gens: tuple) -> tuple:
    """Coefficients of HS(S/J) * (1-t)^4, as a tuple of (exponent,
    coefficient) pairs, for the minimal generators gens of the monomial
    ideal J, ascending as _minimalize leaves them.

    With a mixed generator, 0 -> S/(J : v^k)(-k) -> S/J -> S/(J + v^k) -> 0
    splits it (see _pivot).  J + v^k is smaller than J: v lies in a mixed
    minimal generator, so any pure power of v among them is above v^k.
    """
    if not gens:
        return ((0, 1),)
    if 0 in gens:
        return ()
    mixed = [g for g in gens if _nonzero_fields(g).bit_count() > 1]
    if not mixed:
        return tuple(_ci_numerator(mono_degree(g) for g in gens).items())
    v, k, colon = _pivot(gens, mixed)
    return tuple(_series([*_minimal_numerator(_plus(gens, v, k)),
                          *((a + k, c) for a, c in _minimal_numerator(colon))]).items())


@lru_cache(maxsize=None)
def _minimal_regularity_bound(gens: tuple) -> int:
    """Upper bound B(J) for reg(S/J), exact on complete intersections, for
    the minimal generators gens of the monomial ideal J, ascending as
    _minimalize leaves them.

    It is max(B(J : v) + 1, B(J + v)) with v from _pivot.  For j < k,
    J : v^j has generators of the supports of J's, so it picks v again, and
    (J : v^j) + (v) = J + (v); k such steps are taken here in one,
    max(B(J : v^k) + k, B(J + v) + k - 1).
    """
    if not gens or 0 in gens:
        return 0
    mixed = [g for g in gens if _nonzero_fields(g).bit_count() > 1]
    if not mixed:
        return sum(mono_degree(g) - 1 for g in gens)
    v, k, colon = _pivot(gens, mixed)
    return max(_minimal_regularity_bound(colon) + k,
               _minimal_regularity_bound(_plus(gens, v, 1)) + k - 1)


# 6 * C(t+i, i) in powers of t, lowest first, i = 0..3
_SIX_BINOMIAL = ((6,), (6, 6), (6, 9, 3), (6, 11, 6, 1))


class HilbertPolynomial(FrozenRecord):
    """Polynomial in t of degree at most 3, stored in the binomial basis
    C(t+i, i), whose coefficients are integers for every Hilbert polynomial;
    six times its power coefficients are ints, read off those."""

    __slots__ = ("coeffs",)

    def __init__(self, binomial_coeffs):
        coeffs = list(binomial_coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > len(_SIX_BINOMIAL):
            raise ValueError(f"a Hilbert polynomial on P^3 has degree at most 3, "
                             f"got {len(coeffs)} binomial coefficients")
        super().__init__(tuple(coeffs))

    @classmethod
    def from_numerator(cls, numerator) -> "HilbertPolynomial":
        """The Hilbert polynomial of S/I from the hilbert_numerator of I;
        ValueError for the unit ideal, the only one with HS(S/I) = 0.

        Write the numerator sum_a c_a t^a in powers of 1 - t, by
        t^a = sum_j C(a, j) (-1)^j (1-t)^j.  Over (1-t)^4 the terms j >= 4
        leave a polynomial, which moves finitely many degrees only, and
        the coefficient of t^k in 1/(1-t)^(i+1) is C(k+i, i).  So for
        large k, dim (S/I)_k = sum_i b_i C(k+i, i) with the integers
        b_i = (-1)^(3-i) sum_a c_a C(a, 3-i), i = 0..3.
        """
        if not numerator:
            raise ValueError("the unit ideal has no Hilbert polynomial")
        return cls((-1) ** (3 - i) * sum(c * comb(a, 3 - i) for a, c in numerator.items())
                   for i in range(4))

    @property
    def _six_power(self) -> list:
        six = [0] * max(len(self.coeffs), 1)
        for b, row in zip(self.coeffs, _SIX_BINOMIAL):
            for k, c in enumerate(row):
                six[k] += b * c
        return six

    def power_coeffs(self):
        return [Fraction(c, 6) for c in self._six_power]

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading_coefficient(self) -> Fraction:
        return Fraction(self._six_power[-1], 6)

    def __call__(self, t: int) -> Fraction:
        return Fraction(sum(c * t ** k for k, c in enumerate(self._six_power)), 6)

    def __hash__(self):  # of coeffs itself, not of the field tuple (coeffs,)
        return hash(self.coeffs)

    def __str__(self) -> str:
        power = self.power_coeffs()
        parts = []
        for k in range(len(power) - 1, -1, -1):
            c = power[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        return _signed_sum(parts)

    def __repr__(self):
        return f"HilbertPolynomial({self})"
