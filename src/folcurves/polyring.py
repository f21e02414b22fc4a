"""Exact homogeneous polynomial arithmetic in z0..z3 over the rationals.

A monomial z0^e0 z1^e1 z2^e2 z3^e3 is one int, a packed exponent vector
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): e3 << 96 | e2 << 64 | e1 << 32 | e0.
Bit 31 of each 32-bit field is a guard bit, clear since no polynomial of
degree above MAX_DEGREE = 2^31 - 1 is made.  Products are +, powers *, and 0
is the monomial 1.  Integer order is the lexicographic order of
(e3, e2, e1, e0), so among monomials of one degree the smallest int is the
largest in degrevlex (total degree first, ties broken so that the rightmost
nonzero entry of the exponent difference decides).

A homogeneous polynomial is a degree tag plus a sparse map from monomials
of that degree to nonzero rationals; the zero polynomial keeps its degree
tag so that graded maps stay well typed.  It carries the map only in its
cleared integer form (den, ints): den is the lcm of the denominators and
ints the coefficients times den, so gcd(den, ints) = 1 and the form is
canonical.  The constructor clears the rationals it is given at once, with
integer_terms; everything else makes and reads the form in Python ints.
Every sum of products (a product itself, wedges and contractions of forms,
composed resolution maps) is accumulated by one kernel, sum_of_products,
under one common denominator.  The public terms, a map to Fractions, is
built from the form on each read and not kept.  The public methods take and
return monomials as exponent 4-tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import DegreeMismatchError, NotHomogeneousError, ResourceLimitError
from .records import FrozenRecord

NVARS = 4
VAR_NAMES = ("z0", "z1", "z2", "z3")

# Largest total degree of a polynomial: every exponent then fits below the
# guard bit of its 32-bit field.
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
# inputs reach 0, raising only variables to powers, and the package takes
# no power of a polynomial itself (the section cuts by Horner's rule mod a
# prime, multiplying by l once per step).
MAX_POWER_WORK = 10**9

_FIELD = (1 << 32) - 1
_GUARD = sum(1 << 32 * i + 31 for i in range(NVARS))
_STEPS = tuple(1 << 32 * i for i in range(NVARS))  # z0, z1, z2, z3
_LOW = _GUARD - sum(_STEPS)  # 2^31 - 1 in each field


# Monomial bit tricks.  Among monomials of one degree the smallest int is
# the largest in degrevlex, so a min-heap of them hands out terms in
# descending order.  A divisor is never larger than its multiple.
# Quotients are -, and d divides m when m - d is nonnegative with no guard
# bit set (the lowest field that borrows sets its own); lcm and coprimality
# treat all fields at once through the guard bits.  The exponent of z_v in
# m is m >> 32*v & _FIELD.  _lcm takes another packing's guard mask and
# field width, as a Buchberger run on a hyperplane section packs three
# variables in narrower fields (see groebner and section).

def _divides(d: int, m: int) -> bool:
    q = m - d
    return q >= 0 and not q & _GUARD


def _lcm(a: int, b: int, guard: int = _GUARD, width: int = 32) -> int:
    # the guard bit of a field of (a | guard) - b is set where a's exponent
    # is the larger; spread over the field, it picks a's exponent there
    keep = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (keep - (keep >> width - 1)))


def _nonzero_fields(p: int) -> int:
    """The guard bits of the fields of p that are nonzero."""
    return (p + _LOW) & _GUARD


def check_degree(degree: int, stage: str) -> None:
    """Refuse a degree above MAX_DEGREE, naming the stage."""
    if degree > MAX_DEGREE:
        raise ResourceLimitError(
            f"{stage}: total degree {degree} exceeds the degree cap {MAX_DEGREE}")


def _pack(m) -> int:
    return m[3] << 96 | m[2] << 64 | m[1] << 32 | m[0]


def _pack_checked(m, stage: str) -> int:
    """_pack(m) for an exponent tuple m from a caller: NotHomogeneousError
    unless it is four non-negative exponents, and check_degree on its sum."""
    if len(m) != NVARS or min(m) < 0:
        raise NotHomogeneousError(f"{stage}: {m!r} is not four non-negative exponents")
    check_degree(m[0] + m[1] + m[2] + m[3], stage)
    return _pack(m)


def _unpack(m: int) -> tuple:
    return m & _FIELD, m >> 32 & _FIELD, m >> 64 & _FIELD, m >> 96


def exponent_tuples(monomials) -> list:
    """The packed monomials as exponent 4-tuples, in the same order."""
    return [_unpack(m) for m in monomials]


def mono_degree(m: int) -> int:
    return (m & _FIELD) + (m >> 32 & _FIELD) + (m >> 64 & _FIELD) + (m >> 96)


@lru_cache(maxsize=4096)
def mono_str(m: int) -> str:
    """m as text, such as z0^2*z1; cached, since printed polynomials repeat
    their monomials."""
    parts = []
    for i, name in enumerate(VAR_NAMES):
        e = m >> 32 * i & _FIELD
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) or "1"


@lru_cache(maxsize=None)
def packed_monomials(k: int) -> tuple:
    """All degree-k monomials, packed, ascending: descending degrevlex."""
    return tuple(e3 << 96 | e2 << 64 | e1 << 32 | k - e3 - e2 - e1
                 for e3 in range(k + 1) for e2 in range(k + 1 - e3)
                 for e1 in range(k + 1 - e3 - e2))


def graded_piece_dimension(k: int) -> int:
    """Dimension of the degree-k piece of the coordinate ring, C(k+3,3)."""
    return comb(k + 3, 3) if k >= 0 else 0


class HomogeneousPolynomial(FrozenRecord):
    """Sparse homogeneous polynomial with exact rational coefficients."""

    # The coefficients in their canonical cleared form (den, ints).
    __slots__ = ("degree", "_cleared")

    def __init__(self, degree: int, terms=None):
        check_degree(degree, "HomogeneousPolynomial")
        clean = {}
        if terms:
            for m, c in terms.items():
                m = _pack_checked(m, "HomogeneousPolynomial")
                c = Fraction(c)
                if c == 0:
                    continue
                if mono_degree(m) != degree:
                    raise NotHomogeneousError(
                        f"monomial {mono_str(m)} has degree {mono_degree(m)}, "
                        f"expected {degree}"
                    )
                clean[m] = c
        super().__init__(degree, integer_terms(clean))

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, Fractions keyed by exponent tuple."""
        den, ints = self._cleared
        return {_unpack(m): Fraction(c, den) for m, c in ints.items()}

    @classmethod
    def zero(cls, degree: int = 0) -> "HomogeneousPolynomial":
        return _wrap(degree, 1, {})

    @classmethod
    def from_term(cls, mono: tuple, coeff=1) -> "HomogeneousPolynomial":
        mono = _pack_checked(mono, "from_term")
        num, den = _ratio(coeff)
        return _wrap(mono_degree(mono), den, {mono: num} if num else {})

    @classmethod
    def variable(cls, i: int) -> "HomogeneousPolynomial":
        if i not in range(NVARS):
            raise NotHomogeneousError(f"variable: {i!r} is not an index 0..{NVARS - 1}")
        return _wrap(1, 1, {_STEPS[i]: 1})

    @classmethod
    def constant(cls, c) -> "HomogeneousPolynomial":
        num, den = _ratio(c)
        return _wrap(0, den, {0: num} if num else {})

    def is_zero(self) -> bool:
        return not self._cleared[1]

    def __bool__(self) -> bool:
        return bool(self._cleared[1])

    def sorted_terms(self):
        """Terms as (exponent tuple, coefficient) pairs, descending degrevlex."""
        den, ints = self._cleared
        return [(_unpack(m), Fraction(c, den)) for m, c in sorted(ints.items())]

    def lead_monomial(self) -> tuple:
        ints = self._cleared[1]
        if not ints:
            raise ValueError("zero polynomial has no lead monomial")
        return _unpack(min(ints))

    def lead_coefficient(self) -> Fraction:
        den, ints = self._cleared
        return Fraction(ints[min(ints)], den)

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

    def multiply_monomial(self, mono: tuple, coeff=1) -> "HomogeneousPolynomial":
        mono = _pack_checked(mono, "multiply_monomial")
        num, q = _ratio(coeff)
        degree = self.degree + mono_degree(mono)
        check_degree(degree, "multiply_monomial")
        if not num:
            return _wrap(degree, 1, {})
        den, ints = self._cleared
        d, f, g = _scaling(den, ints, num, q)
        return _wrap(degree, d, {m + mono: c // g * f for m, c in ints.items()})

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            return sum_of_products(((1, self, other),))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "HomogeneousPolynomial":
        """self ** n, refused before it is computed by check_power on its
        power_bounds, or when its degree exceeds MAX_DEGREE."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        check_degree(self.degree * n, f"polynomial power ^{n}")
        check_power(*power_bounds(self, n), n, "polynomial power")
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
        return _from_integers(self.degree, ints[min(ints)], ints)

    def partial(self, i: int) -> "HomogeneousPolynomial":
        """Partial derivative with respect to z_i."""
        den, ints = self._cleared
        shift, step = 32 * i, _STEPS[i]
        res = {}
        for m, c in ints.items():
            e = m >> shift & _FIELD
            if e:
                res[m - step] = c * e
        return _from_integers(max(self.degree - 1, 0), den, res)

    def __hash__(self):  # the dict of terms hashed as a frozenset of its items
        den, ints = self._cleared
        return hash((self.degree, den, frozenset(ints.items())))

    def __reduce__(self):
        # the constructor takes exponent tuples; _wrap takes the cleared form
        return _wrap, (self.degree, *self._cleared)

    def __str__(self) -> str:
        den, ints = self._cleared
        parts = []
        for m, c in sorted(ints.items()):
            sign = "-" if c < 0 else "+"
            c = abs(c)
            g = gcd(c, den)  # |c|/den in lowest terms, as str(Fraction) writes it
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
            if not m:
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
    den, ints = a._cleared
    _, den, ints = _accumulate((a.degree, den, dict(ints)), (b.degree, *b._cleared), sign)
    return _from_integers(a.degree, den, ints)


def _accumulate(acc: tuple, s: tuple, sign: int) -> tuple:
    """acc + sign * s for scalars (degree, den, ints) of one degree, summed
    into acc's dict: acc's terms keep their order, s's new ones follow, and
    a monomial whose sum reaches zero is dropped at once."""
    degree, den, ints = acc
    _, s_den, s_ints = s
    if den % s_den:  # the common denominator grows: rescale the sum so far
        k = s_den // gcd(den, s_den)
        for m in ints:
            ints[m] *= k
        den *= k
    k = sign * (den // s_den)
    get = ints.get
    for m, c in s_ints.items():
        c = get(m, 0) + c * k
        if c:
            ints[m] = c
        else:
            del ints[m]
    return degree, den, ints


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


def check_power(terms: int, bits: int, n: int, stage: str) -> None:
    """Refuse an n-th power whose coefficients may need more than
    MAX_COEFFICIENT_BITS bits, or whose estimated work, terms * terms * bits
    for up to terms terms (see power_bounds), exceeds MAX_POWER_WORK; the
    message starts "{stage} ^{n}: "."""
    if bits > MAX_COEFFICIENT_BITS:
        raise ResourceLimitError(f"{stage} ^{n}: a coefficient may need {bits} bits, "
                                 f"over the cap of {MAX_COEFFICIENT_BITS}")
    if terms * terms * bits > MAX_POWER_WORK:
        raise ResourceLimitError(
            f"{stage} ^{n}: an estimated {terms * terms * bits} term products "
            f"times coefficient bits, over the cap of {MAX_POWER_WORK}")


def integer_terms(coeffs: dict):
    """(den, int_terms): the values of coeffs (Fractions or ints) times den,
    the lcm of their denominators, as ints on the same keys in the same
    order, in a new dict.  An empty dict gives (1, {})."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    if den == 1:  # integral values
        return 1, {k: c.numerator for k, c in coeffs.items()}
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def _multiply_into(acc: dict, a_ints: dict, b_ints: dict, scale: int = 1) -> None:
    """Add scale * a * b into the integer terms acc, for integer terms a and
    b: a's terms outer, b's inner.  A sum that reaches zero stays in acc."""
    get = acc.get
    b_terms = b_ints.items()
    for m1, c1 in a_ints.items():
        c1 *= scale
        for m2, c2 in b_terms:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def sum_of_products(pairs) -> HomogeneousPolynomial:
    """The polynomial sum of sign*a*b over the (sign, a, b) triples in pairs.

    pairs must be non-empty, each sign an int, and every product a*b must
    have one degree, at most MAX_DEGREE.  All products accumulate as ints
    into one dict under a common denominator, so a sum of many products
    builds no intermediate polynomials and no Fraction; zero coefficients
    are dropped once, at the end.
    """
    acc: dict = {}
    den = 1  # acc holds the result times den
    degree = None
    for sign, a, b in pairs:
        if degree is None:
            degree = a.degree + b.degree
            check_degree(degree, "polynomial product")
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
        _multiply_into(acc, a_terms, b_terms, sign * (den // d))
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
