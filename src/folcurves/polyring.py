"""Exact homogeneous polynomial arithmetic in z0..z3 over the rationals.

A monomial is a 4-tuple of non-negative exponents.  Monomials are compared
in degrevlex: total degree first, ties broken so that the rightmost nonzero
entry of the exponent difference decides (larger key means larger monomial).
A homogeneous polynomial is a degree tag plus a sparse map from monomials of
that degree to nonzero rationals; the zero polynomial keeps its degree tag
so that graded maps stay well typed.  It carries the map only in its
cleared integer form (den, ints): den is the lcm of the denominators and
ints the coefficients times den, so gcd(den, ints) = 1 and the form is
canonical.  The constructor clears the rationals it is given at once, with
integer_terms; everything else makes and reads the form in Python ints.
Every sum of products (a product itself, wedges and contractions of forms,
composed resolution maps) is accumulated by one kernel, sum_of_products,
under one common denominator.  The public terms, a map to Fractions, is
built from the form on each read and not kept.

The tuple helpers here (degree, product, degrevlex key, string) serve
polynomial arithmetic and printing.  Divisibility, lcm and quotients of
monomials are needed only by Groebner bases, lead ideals and degree
matrices, which run on groebner's packed exponent vectors and have them
there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import DegreeMismatchError, NotHomogeneousError, ResourceLimitError

NVARS = 4
VAR_NAMES = ("z0", "z1", "z2", "z3")

Monomial = tuple  # 4-tuple of non-negative ints

ONE_MONO: Monomial = (0, 0, 0, 0)

# Largest total degree the parser builds and Groebner division takes: every
# exponent then fits below the guard bit of its 32-bit field in groebner's
# packed monomials.
MAX_DEGREE = 2**31 - 1
# Most bits a coefficient of a power may need, numerator and denominator
# together, as bounded before the power is computed.  The largest bound any
# shipped test reaches is 22, for (x+y+z+t)^11; every demo and benchmark
# input stays at 0, since only variables are raised to powers there.
MAX_COEFFICIENT_BITS = 10_000
# Most work a power of a polynomial may cost, estimated before it is
# computed as the square of its term bound times its coefficient-bit bound:
# the term products of one multiplication, each on coefficients of up to that
# many bits.  Near the cap a power takes 0.2-0.5 s on one core of a 2-vCPU
# Xeon VM with Python 3.11 ((x+y)^1000 is 1.002e9); (x+y+z)^60 is 4.3e8.  The largest estimate any
# shipped test reaches is 2.9e6, for (x+y+z+t)^11; demos and benchmark
# inputs reach 0, raising only variables to powers, and the largest power
# the package takes itself, l^8 in groebner's hyperplane section, is 48600.
MAX_POWER_WORK = 10**9


def mono_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2] + m[3]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def degrevlex_key(m: Monomial):
    """Sort key; larger key means larger monomial in degrevlex."""
    return (m[0] + m[1] + m[2] + m[3], -m[3], -m[2], -m[1], -m[0])


def mono_str(m: Monomial) -> str:
    if m == ONE_MONO:
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{VAR_NAMES[i]}^{e}")
    return "*".join(parts)


@lru_cache(maxsize=None)
def monomials_of_degree(k: int) -> tuple:
    """All degree-k monomials, descending degrevlex."""
    if k < 0:
        return ()
    out = []
    for e0 in range(k, -1, -1):
        for e1 in range(k - e0, -1, -1):
            for e2 in range(k - e0 - e1, -1, -1):
                out.append((e0, e1, e2, k - e0 - e1 - e2))
    out.sort(key=degrevlex_key, reverse=True)
    return tuple(out)


def graded_piece_dimension(k: int) -> int:
    """Dimension of the degree-k piece of the coordinate ring, C(k+3,3)."""
    return comb(k + 3, 3) if k >= 0 else 0


class HomogeneousPolynomial:
    """Sparse homogeneous polynomial with exact rational coefficients."""

    # The coefficients in their canonical cleared form (den, ints).
    __slots__ = ("degree", "_cleared")

    def __init__(self, degree: int, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if mono_degree(m) != degree:
                    raise NotHomogeneousError(
                        f"monomial {mono_str(m)} has degree {mono_degree(m)}, "
                        f"expected {degree}"
                    )
                clean[m] = c
        _set_degree(self, degree)
        _set_cleared(self, integer_terms(clean))

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPolynomial is immutable")

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, Fractions keyed by monomial."""
        den, ints = self._cleared
        return {m: Fraction(c, den) for m, c in ints.items()}

    @classmethod
    def zero(cls, degree: int = 0) -> "HomogeneousPolynomial":
        return _wrap(degree, 1, {})

    @classmethod
    def from_term(cls, mono: Monomial, coeff=1) -> "HomogeneousPolynomial":
        num, den = _ratio(coeff)
        return _wrap(mono_degree(mono), den, {mono: num} if num else {})

    @classmethod
    def variable(cls, i: int) -> "HomogeneousPolynomial":
        return _wrap(1, 1, {tuple(1 if j == i else 0 for j in range(NVARS)): 1})

    @classmethod
    def constant(cls, c) -> "HomogeneousPolynomial":
        num, den = _ratio(c)
        return _wrap(0, den, {ONE_MONO: num} if num else {})

    def is_zero(self) -> bool:
        return not self._cleared[1]

    def __bool__(self) -> bool:
        return bool(self._cleared[1])

    def sorted_terms(self):
        """Terms as (monomial, coefficient) pairs, descending degrevlex."""
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def lead_monomial(self) -> Monomial:
        ints = self._cleared[1]
        if not ints:
            raise ValueError("zero polynomial has no lead monomial")
        return max(ints, key=degrevlex_key)

    def lead_coefficient(self) -> Fraction:
        den, ints = self._cleared
        return Fraction(ints[self.lead_monomial()], den)

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return _combine(self, other, 1)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return _combine(self, other, -1)

    def __neg__(self) -> "HomogeneousPolynomial":
        den, ints = self._cleared
        return _wrap(self.degree, den, {m: -c for m, c in ints.items()})

    def scale(self, c) -> "HomogeneousPolynomial":
        num, q = _ratio(c)
        if not num:
            return _wrap(self.degree, 1, {})
        den, ints = self._cleared
        d, f, g = _scaling(den, ints, num, q)
        return _wrap(self.degree, d, {m: c // g * f for m, c in ints.items()})

    def multiply_monomial(self, mono: Monomial, coeff=1) -> "HomogeneousPolynomial":
        num, q = _ratio(coeff)
        degree = self.degree + mono_degree(mono)
        if not num:
            return _wrap(degree, 1, {})
        den, ints = self._cleared
        d, f, g = _scaling(den, ints, num, q)
        e0, e1, e2, e3 = mono
        return _wrap(degree, d, {(m[0] + e0, m[1] + e1, m[2] + e2, m[3] + e3): c // g * f
                                 for m, c in ints.items()})

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            return sum_of_products(((1, self, other),))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "HomogeneousPolynomial":
        """self ** n, refused before it is computed when a coefficient may
        need more than MAX_COEFFICIENT_BITS bits or the estimated work
        exceeds MAX_POWER_WORK (see power_bounds)."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        terms, bits = power_bounds(self, n)
        if bits > MAX_COEFFICIENT_BITS or terms * terms * bits > MAX_POWER_WORK:
            raise ResourceLimitError(
                f"polynomial power ^{n}: up to {terms} terms with coefficients of up to "
                f"{bits} bits, over the caps of {MAX_COEFFICIENT_BITS} bits and "
                f"{MAX_POWER_WORK} term products times bits"
            )
        # repeated squaring over the bits of n, low bit first
        out, base = HomogeneousPolynomial.constant(1), self
        while n:
            if n & 1:
                out = base * out
            n >>= 1
            if n:
                base = base * base
        return out

    def monic(self) -> "HomogeneousPolynomial":
        den, ints = self._cleared
        if not ints:
            return self
        # each c/den over the lead coefficient lc/den is c/lc
        return _from_integers(self.degree, ints[self.lead_monomial()], ints)

    def partial(self, i: int) -> "HomogeneousPolynomial":
        """Partial derivative with respect to z_i."""
        den, ints = self._cleared
        res = {}
        for m, c in ints.items():
            e = m[i]
            if e:
                d = list(m)
                d[i] -= 1
                res[tuple(d)] = c * e
        return _from_integers(max(self.degree - 1, 0), den, res)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return self.degree == other.degree and self._cleared == other._cleared

    def __hash__(self):
        den, ints = self._cleared
        return hash((self.degree, den, frozenset(ints.items())))

    def __str__(self) -> str:
        den, ints = self._cleared
        parts = []
        for m, c in sorted(ints.items(), key=lambda t: degrevlex_key(t[0]), reverse=True):
            sign = "-" if c < 0 else "+"
            c = abs(c)
            g = gcd(c, den)  # |c|/den in lowest terms, as str(Fraction) writes it
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
            if m == ONE_MONO:
                body = coeff
            elif c == den:
                body = mono_str(m)
            else:
                body = f"{coeff}*{mono_str(m)}"
            parts.append((sign, body))
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"HomogeneousPolynomial({self})"


def _signed_sum(parts) -> str:
    """The terms (sign, body), sign "+" or "-", written as a sum: "-a + b"
    for [("-", "a"), ("+", "b")]; "0" for no terms."""
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


_new = object.__new__
_set_degree = HomogeneousPolynomial.degree.__set__
_set_cleared = HomogeneousPolynomial._cleared.__set__


def _wrap(degree: int, den: int, ints: dict) -> HomogeneousPolynomial:
    """The polynomial of the canonical cleared form (den, ints), not copied."""
    out = _new(HomogeneousPolynomial)
    _set_degree(out, degree)
    _set_cleared(out, (den, ints))
    return out


def _from_integers(degree: int, den: int, ints: dict) -> HomogeneousPolynomial:
    """The polynomial ints / den, for nonzero integer terms ints on monomials
    of the given degree and a nonzero integer den.  ints is kept, not
    copied, unless den is negative or shares a factor with every term: then
    both are divided by it, which makes the cleared form canonical."""
    if den != 1:
        if den < 0:
            den, ints = -den, {m: -c for m, c in ints.items()}
        g = _gcd_with(den, ints.values())
        if g != 1:
            den //= g
            ints = {m: c // g for m, c in ints.items()}
    return _wrap(degree, den, ints)


def _gcd_with(g: int, values) -> int:
    """The gcd of g and all the values, stopping once it is 1."""
    for c in values:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _ratio(c):
    """(numerator, denominator) of a scalar: an int, a Fraction or anything
    Fraction() takes."""
    if type(c) is not int and type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator, c.denominator


def _scaling(den: int, ints: dict, num: int, q: int):
    """(d, f, g) such that (ints / den) * (num / q) is {m: c // g * f} / d
    in lowest terms, for a canonical cleared form (den, ints) and a nonzero
    num / q in lowest terms with q > 0.  With k the gcd of ints, the
    common factor of den * q and num * k is gcd(den, num) * gcd(q, k),
    because gcd(den, k) = gcd(num, q) = 1."""
    g1, g = gcd(den, num), _gcd_with(q, ints.values())
    return den // g1 * (q // g), num // g1, g


def _combine(a: HomogeneousPolynomial, b: HomogeneousPolynomial, sign: int):
    """a + sign * b, for sign 1 or -1."""
    if a.degree != b.degree:
        raise DegreeMismatchError(f"cannot add degree {a.degree} and degree {b.degree}")
    da, ta = a._cleared
    db, tb = b._cleared
    den = da if da == db else lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    acc = dict(ta) if sa == 1 else {m: c * sa for m, c in ta.items()}
    for m, c in tb.items():
        acc[m] = acc.get(m, 0) + sb * c
    return _from_integers(a.degree, den, {m: c for m, c in acc.items() if c})


def coefficient_bits(norm: int, den: int, n: int) -> int:
    """A bound on the bits of |numerator| * denominator of every coefficient
    of an n-th power of a polynomial whose denominators are cleared by den,
    leaving integer coefficients whose absolute values sum to norm: each is
    a numerator of at most norm^n over a denominator of at most den^n."""
    return n * ((max(norm, 1) - 1).bit_length() + (den - 1).bit_length())


def power_bounds(p: HomogeneousPolynomial, n: int):
    """(terms, bits) for p ** n, computed without it: it has at most terms
    terms, the smaller of C(len(p.terms) + n - 1, n) and dim S_(n * degree),
    and coefficient_bits bounds its coefficients.  terms * terms * bits
    estimates its work, the term products of one multiplication, each on
    coefficients of up to bits bits."""
    den, ints = p._cleared
    terms = min(comb(len(ints) + n - 1, n) if ints else 1,
                graded_piece_dimension(n * p.degree))
    return terms, coefficient_bits(sum(abs(c) for c in ints.values()), den, n)


def integer_terms(coeffs: dict):
    """(den, int_terms): the values of coeffs (Fractions or ints) times den,
    the lcm of their denominators, as ints on the same keys in the same
    order, in a new dict.  An empty dict gives (1, {})."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    if den == 1:  # integral values
        return 1, {k: c.numerator for k, c in coeffs.items()}
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def sum_of_products(pairs) -> HomogeneousPolynomial:
    """The polynomial sum of sign*a*b over the (sign, a, b) triples in pairs.

    pairs must be non-empty, each sign an int, and every product a*b must
    have one degree.  All products accumulate as ints into one dict under a
    common denominator, so a sum of many products builds no intermediate
    polynomials and no Fraction; zero coefficients are dropped once, at the
    end.
    """
    acc: dict = {}
    den = 1  # acc holds the result times den
    degree = None
    for sign, a, b in pairs:
        if degree is None:
            degree = a.degree + b.degree
        elif a.degree + b.degree != degree:
            raise DegreeMismatchError(
                f"cannot add degree {degree} and degree {a.degree + b.degree}"
            )
        da, a_terms = a._cleared
        db, b_terms = b._cleared
        d = da * db
        if den % d:  # the common denominator grows: rescale what is summed so far
            grown = lcm(den, d)
            s = grown // den
            for m in acc:
                acc[m] *= s
            den = grown
        scale = sign * (den // d)
        b_terms = b_terms.items()
        for m1, c1 in a_terms.items():
            c1 *= scale
            for m2, c2 in b_terms:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                acc[m] = acc.get(m, 0) + c1 * c2
    if degree is None:
        raise ValueError("an empty sum of products has no degree")
    return _from_integers(degree, den, {m: c for m, c in acc.items() if c})


def parse_polynomial(text: str) -> HomogeneousPolynomial:
    """Parse an expression in z0..z3 (aliases x,y,z,t) into canonical form.

    Raises ParseError on malformed input and NotHomogeneousError when the
    expression mixes total degrees.
    """
    from .parsing import parse_scalar

    return parse_scalar(text)
