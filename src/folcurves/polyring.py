"""Exact homogeneous polynomial arithmetic in z0..z3 over the rationals.

A monomial is a 4-tuple of non-negative exponents.  Monomials are compared
in degrevlex: total degree first, ties broken so that the rightmost nonzero
entry of the exponent difference decides (larger key means larger monomial).
A homogeneous polynomial is a degree tag plus a sparse map from monomials of
that degree to nonzero Fractions; the zero polynomial keeps its degree tag
so that graded maps stay well typed.  Every sum of products (a product
itself, wedges and contractions of forms, composed resolution maps) is
accumulated by one kernel, sum_of_products, in Python ints under one common
denominator; Fractions are built only for the terms of the result.  A
polynomial keeps its cleared integer terms once a product has needed them,
so a factor that meets several partners is cleared once.  integer_terms
is the one helper that clears denominators, here, in the elimination
engine and in Groebner division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import DegreeMismatchError, NotHomogeneousError, ResourceLimitError

NVARS = 4
VAR_NAMES = ("z0", "z1", "z2", "z3")

Monomial = tuple  # 4-tuple of non-negative ints

ONE_MONO: Monomial = (0, 0, 0, 0)

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


def mono_divides(d: Monomial, m: Monomial) -> bool:
    return d[0] <= m[0] and d[1] <= m[1] and d[2] <= m[2] and d[3] <= m[3]


def mono_quotient(m: Monomial, d: Monomial) -> Monomial:
    return (m[0] - d[0], m[1] - d[1], m[2] - d[2], m[3] - d[3])


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


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

    # _cleared, once filled, holds integer_terms(terms) for sum_of_products
    __slots__ = ("degree", "terms", "_cleared")

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
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPolynomial is immutable")

    @classmethod
    def _raw(cls, degree: int, terms: dict) -> "HomogeneousPolynomial":
        """Wrap terms, nonzero Fractions on monomials of the given degree,
        without checking or copying them."""
        out = object.__new__(cls)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls, degree: int = 0) -> "HomogeneousPolynomial":
        return cls(degree, {})

    @classmethod
    def from_term(cls, mono: Monomial, coeff=1) -> "HomogeneousPolynomial":
        return cls(mono_degree(mono), {mono: Fraction(coeff)})

    @classmethod
    def variable(cls, i: int) -> "HomogeneousPolynomial":
        mono = tuple(1 if j == i else 0 for j in range(NVARS))
        return cls(1, {mono: Fraction(1)})

    @classmethod
    def constant(cls, c) -> "HomogeneousPolynomial":
        return cls(0, {ONE_MONO: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self):
        """Terms as (monomial, coefficient) pairs, descending degrevlex."""
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return max(self.terms, key=degrevlex_key)

    def lead_coefficient(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add degree {self.degree} and degree {other.degree}"
            )
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return HomogeneousPolynomial._raw(self.degree, {m: c for m, c in acc.items() if c})

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def __neg__(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial._raw(
            self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "HomogeneousPolynomial":
        c = Fraction(c)
        return HomogeneousPolynomial._raw(
            self.degree, {m: v * c for m, v in self.terms.items()} if c else {})

    def multiply_monomial(self, mono: Monomial, coeff=1) -> "HomogeneousPolynomial":
        coeff = Fraction(coeff)
        terms = {mono_mul(m, mono): c * coeff for m, c in self.terms.items()} if coeff else {}
        return HomogeneousPolynomial._raw(self.degree + mono_degree(mono), terms)

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
        if not self.terms:
            return self
        return self.scale(1 / self.lead_coefficient())

    def partial(self, i: int) -> "HomogeneousPolynomial":
        """Partial derivative with respect to z_i."""
        deg = max(self.degree - 1, 0)
        res = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            d = list(m)
            d[i] -= 1
            res[tuple(d)] = c * m[i]
        return HomogeneousPolynomial(deg, res)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.degree == other.degree
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if m == ONE_MONO:
                body = str(c)
            elif c == 1:
                body = mono_str(m)
            else:
                body = f"{c}*{mono_str(m)}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"HomogeneousPolynomial({self})"


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
    terms = min(comb(len(p.terms) + n - 1, n) if p else 1,
                graded_piece_dimension(n * p.degree))
    den, ints = integer_terms(p.terms)
    return terms, coefficient_bits(sum(abs(c) for c in ints.values()), den, n)


def integer_terms(coeffs: dict):
    """(den, int_terms): the values of coeffs (Fractions or ints) times den,
    the lcm of their denominators, as ints on the same keys in the same
    order.  An empty dict gives (1, {})."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    if den == 1:  # the usual case, integral values
        return 1, {k: c.numerator for k, c in coeffs.items()}
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def _cleared(p: HomogeneousPolynomial):
    """integer_terms(p.terms), computed on the first call and kept on p: a
    factor that meets several partners (a coefficient of a form in a wedge)
    is cleared once, not once per product."""
    out = getattr(p, "_cleared", None)
    if out is None:
        out = integer_terms(p.terms)
        object.__setattr__(p, "_cleared", out)
    return out


def sum_of_products(pairs) -> HomogeneousPolynomial:
    """The polynomial sum of sign*a*b over the (sign, a, b) triples in pairs.

    pairs must be non-empty, each sign an int, and every product a*b must
    have one degree.  All products accumulate as ints into one dict under a
    common denominator, so a sum of many products builds no intermediate
    polynomials and no Fraction until the end; zero coefficients are dropped
    once, there.
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
        da, a_terms = _cleared(a)
        db, b_terms = _cleared(b)
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
    return HomogeneousPolynomial._raw(
        degree, {m: Fraction(c, den) for m, c in acc.items() if c})


def parse_polynomial(text: str) -> HomogeneousPolynomial:
    """Parse an expression in z0..z3 (aliases x,y,z,t) into canonical form.

    Raises ParseError on malformed input and NotHomogeneousError when the
    expression mixes total degrees.
    """
    from .parsing import parse_scalar

    return parse_scalar(text)
