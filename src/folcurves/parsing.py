"""Recursive-descent parser for polynomial and differential-form expressions.

Grammar (whitespace insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*' | '/\\') factor)*
    factor := atom ('^' (NAT | factor))?
    atom   := NAT ('/' NAT)? | NAME | '(' expr ')'

Scalar names are z0..z3 with aliases x,y,z,t; form atoms are dz0..dz3.
'^' works as exponent on a scalar base followed by a natural number and as
a wedge otherwise; '/\\' is always a wedge.  Products mixing scalars and
forms scale the form.

A product of numbers, variables and their natural powers, such as
3*z0^3*z1, is parsed as one term, a (coefficient, monomial) tuple: its
factors multiply coefficients and add exponents, and no polynomial product
is run.  A term becomes a HomogeneousPolynomial only when it meets a sum, a
parenthesis, a polynomial or a form, or ends the expression; from there on
the polynomial operations, their term cap and their error messages are
those of a parser without the one-term path.  Every power is refused
before it is computed when its coefficients could exceed
MAX_COEFFICIENT_BITS bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DegreeMismatchError, NotHomogeneousError, ParseError, ResourceLimitError
from .polyring import (
    HomogeneousPolynomial,
    ONE_MONO,
    graded_piece_dimension,
    integer_terms,
    mono_degree,
    mono_mul,
)

# Largest number of terms a scalar product or power may produce; far above
# any polynomial the shipped tests, demos and benchmark inputs parse to.
MAX_TERMS = 2_000
# Most bits a coefficient of a power may need, numerator and denominator
# together, as bounded before the power is computed.  The largest bound any
# shipped test reaches is 22, for (x+y+z+t)^11; every demo and benchmark
# input stays at 0, since only variables are raised to powers there.
MAX_COEFFICIENT_BITS = 10_000

_ALIASES = {"x": 0, "y": 1, "z": 2, "t": 3, "z0": 0, "z1": 1, "z2": 2, "z3": 3}
_VARIABLES = {name: tuple(int(j == i) for j in range(4)) for name, i in _ALIASES.items()}
_FORM_ATOMS = {"dz0": 0, "dz1": 1, "dz2": 2, "dz3": 3}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "\\":
            tokens.append(("op", "/\\"))
            i += 2
            continue
        if ch in "+-*^()/":
            tokens.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse(self):
        value = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input near {val!r}")
        return _promote(value)

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.term()
        if negate:
            value = _neg(value)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = _add(value, _neg(rhs) if val == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in ("*", "/\\"):
                self.next()
                value = _mul(value, self.factor())
            else:
                return value

    def factor(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, val2 = self.peek()
            if kind2 == "num":
                if type(base) is tuple:
                    self.next()
                    c, m = base  # c an int or a Fraction
                    _check_bits(abs(c.numerator), c.denominator, val2)
                    return c ** val2, (m[0] * val2, m[1] * val2, m[2] * val2, m[3] * val2)
                if not isinstance(base, HomogeneousPolynomial):
                    raise ParseError("exponent applies only to scalar atoms")
                self.next()
                count = comb(len(base.terms) + val2 - 1, val2) if base else 1
                _check_terms(count, val2 * base.degree)
                den, ints = integer_terms(base.terms)
                _check_bits(sum(abs(c) for c in ints.values()), den, val2)
                return base ** val2
            rhs = self.factor()
            if _is_scalar(base) and _is_scalar(rhs):
                raise ParseError("'^' between scalars needs a natural-number exponent")
            return _mul(base, rhs)
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3 = self.next()
                if k3 != "num" or v3 == 0:
                    raise ParseError("malformed rational literal")
                return Fraction(val, v3), ONE_MONO
            return val, ONE_MONO
        if kind == "name":
            if val in _VARIABLES:
                return 1, _VARIABLES[val]
            if val in _FORM_ATOMS:
                from .forms import TwistedForm

                return TwistedForm.basis_covector(_FORM_ATOMS[val])
            raise ParseError(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            value = _promote(self.expr())
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}")


def _check_terms(count: int, degree: int):
    """Refuse, before multiplying, a result that may exceed MAX_TERMS terms:
    it has at most count terms and at most dim S_degree."""
    bound = min(count, graded_piece_dimension(degree))
    if bound > MAX_TERMS:
        raise ResourceLimitError(
            f"a product or power may have {bound} terms, over the cap of {MAX_TERMS}"
        )


def _check_bits(norm: int, den: int, n: int):
    """Refuse, before it is computed, an n-th power with a coefficient whose
    |numerator| * denominator may exceed 2^MAX_COEFFICIENT_BITS.  With the
    base's denominators cleared by den, leaving integer coefficients whose
    absolute values sum to norm, every coefficient of the power is a
    numerator of at most norm^n over a denominator of at most den^n."""
    bits = n * ((max(norm, 1) - 1).bit_length() + (den - 1).bit_length())
    if bits > MAX_COEFFICIENT_BITS:
        raise ResourceLimitError(
            f"parsing, power ^{n}: a coefficient may need {bits} bits, "
            f"over the cap of {MAX_COEFFICIENT_BITS}"
        )


def _is_scalar(value) -> bool:
    return type(value) is tuple or isinstance(value, HomogeneousPolynomial)


def _promote(value):
    """A one-term product (coefficient, monomial) as a HomogeneousPolynomial;
    a polynomial or form unchanged."""
    if type(value) is not tuple:
        return value
    c, m = value
    return HomogeneousPolynomial._raw(mono_degree(m), {m: Fraction(c)} if c else {})


def _neg(value):
    if type(value) is tuple:
        return -value[0], value[1]
    return -value


def _add(a, b):
    a, b = _promote(a), _promote(b)
    if isinstance(a, HomogeneousPolynomial) != isinstance(b, HomogeneousPolynomial):
        raise NotHomogeneousError("cannot add a scalar and a differential form")
    try:
        return a + b
    except DegreeMismatchError as exc:
        raise NotHomogeneousError(str(exc)) from exc


def _mul(a, b):
    if type(a) is tuple and type(b) is tuple:
        return a[0] * b[0], mono_mul(a[1], b[1])
    from .forms import wedge

    a, b = _promote(a), _promote(b)
    a_poly = isinstance(a, HomogeneousPolynomial)
    b_poly = isinstance(b, HomogeneousPolynomial)
    if a_poly and b_poly:
        _check_terms(len(a.terms) * len(b.terms), a.degree + b.degree)
        return a * b
    if a_poly:
        return b.scale_by_polynomial(a)
    if b_poly:
        return a.scale_by_polynomial(b)
    return wedge(a, b)


def parse_value(text: str):
    """Parse an expression into a polynomial or a twisted form."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def parse_scalar(text: str) -> HomogeneousPolynomial:
    value = parse_value(text)
    if not isinstance(value, HomogeneousPolynomial):
        raise ParseError("expected a scalar polynomial, found a differential form")
    return value
