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

An expression is evaluated in one pass into integer term dicts.  A scalar
is a tuple (degree, den, ints), ints / den with nonzero int coefficients
keyed by packed monomial; a form is a _Form (degree, form_degree,
coefficients), nonzero scalars keyed by covector index.  A sum adds each
addend into the first in place, with the _accumulate that polynomial sums
use, so its terms keep the order of a sum taken pairwise.  A product's
leading run of one-term factors, natural numbers and variables each with an
optional ^NAT, is multiplied as integers, a coefficient and a packed
monomial, with no term dict per factor; any other product of scalars, or of
a scalar and a form, multiplies term dicts in the order of
polyring.sum_of_products.  One polynomial or form is built, at the end;
only a power of a scalar of two or more terms and a wedge of two forms go
through HomogeneousPolynomial.__pow__ and forms.wedge.  Every power is
refused before it is computed when its coefficients could exceed
MAX_COEFFICIENT_BITS bits, and a power of a polynomial also when its
estimated work exceeds MAX_POWER_WORK; a power or a product of scalars when
it may have more than MAX_TERMS terms; and every product or power when its
total degree would exceed MAX_DEGREE.
"""

from __future__ import annotations

import re
from itertools import islice
from math import gcd

from .errors import NotHomogeneousError, ParseError, ResourceLimitError
from .polyring import (HomogeneousPolynomial, MAX_COEFFICIENT_BITS, MAX_POWER_WORK,
                       _STEPS, _accumulate, _from_integers, _multiply_into, check_degree,
                       coefficient_bits, graded_piece_dimension, power_bounds)

# Largest number of terms a scalar product or power may produce; far above
# any polynomial the shipped tests, demos and benchmark inputs parse to.
MAX_TERMS = 2_000
# Most digits a numeral may have: the default of Python's own limit on
# converting a string to an int, which an interpreter may set otherwise or
# lack.  A longer numeral is refused before it is converted, so that every
# interpreter gives the same ParseError.
MAX_NUMERAL_DIGITS = 4300

_ALIASES = {"x": 0, "y": 1, "z": 2, "t": 3, "z0": 0, "z1": 1, "z2": 2, "z3": 3}
_VARIABLES = {name: _STEPS[i] for name, i in _ALIASES.items()}
_FORM_ATOMS = {"dz0": 0, "dz1": 1, "dz2": 2, "dz3": 3}
# A word is a run of decimal digits, a run of letters, digits and "_", "/\\"
# or any other character but whitespace, which only separates words.  The
# commonest words, lowercase names and one-character operators, are tried
# first.  Known words, one-digit numerals among them, map to their tokens.
_WORD = re.compile(r"[a-z]\w*|\d+|[-+*^()]|\w+|/\\|\S")
_KNOWN = {word: ("op", word) for word in ("+", "-", "*", "^", "(", ")", "/", "/\\")}
_KNOWN.update((word, ("name", word)) for word in (*_ALIASES, *_FORM_ATOMS))
_KNOWN.update((str(i), ("num", i)) for i in range(10))
_SIGNS = {("op", "+"): 1, ("op", "-"): -1}
_PRODUCTS = {("op", "*"), ("op", "/\\")}
_SLASH, _CARET, _END = ("op", "/"), ("op", "^"), ("end", None)


def _tokenize(text: str):
    words = _WORD.findall(text)
    tokens = list(map(_KNOWN.get, words))
    if None in tokens:  # a longer numeral, another name or a refused character
        for i, word in enumerate(words):
            if tokens[i] is None:
                if word[0].isdecimal():
                    if len(word) > MAX_NUMERAL_DIGITS:
                        raise ParseError(
                            f"numeral of {len(word)} digits at position {_position(text, i)}, "
                            f"over the cap of {MAX_NUMERAL_DIGITS}")
                    tokens[i] = ("num", int(word))
                elif word[0].isalpha():
                    tokens[i] = ("name", word)
                else:
                    raise ParseError(
                        f"unexpected character {word[0]!r} at position {_position(text, i)}")
    tokens.append(_END)
    return tokens


def _position(text: str, i: int) -> int:
    """Where word i of text starts."""
    return next(islice(_WORD.finditer(text), i, None)).start()


class _Form(tuple):
    """A form, the tuple (degree, form_degree, coefficients)."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)[::-1]  # the next token last
        self.next = self.tokens.pop

    def expr(self):
        sign = _SIGNS.get(self.tokens[-1])
        if sign:
            self.next()
        value = self.term()
        if sign == -1:  # 0 - value, with the zero of value's kind and degrees
            value = _add(type(value)(value[:2] + ({},)), value, -1)
        while sign := _SIGNS.get(self.tokens[-1]):
            self.next()
            value = _add(value, self.term(), sign)
        return value

    def term(self):
        """A product: its leading run of one-term factors is multiplied as
        the integers c * m of one degree, any later factor through _mul."""
        tokens, pop = self.tokens, self.next
        degree, c, m, run = 0, 1, 0, False
        while True:
            kind, val = tokens[-1]
            if kind == "num" and tokens[-2] != _SLASH:
                d, fc, fm = 0, val, 0
            elif val in _VARIABLES:
                d, fc, fm = 1, 1, _VARIABLES[val]
            else:
                break
            if tokens[-2] == _CARET:
                if tokens[-3][0] != "num":
                    break
                d, _, fm, fc = _term_power(d, 1, fm, fc, tokens[-3][1])
                del tokens[-3:]
            else:
                pop()
            degree += d
            check_degree(degree, "parsing")
            c *= fc
            m += fm
            run = True
            if tokens[-1] not in _PRODUCTS:
                return degree, 1, {m: c} if c else {}
            pop()
        value = _mul((degree, 1, {m: c} if c else {}), self.factor()) if run else self.factor()
        while tokens[-1] in _PRODUCTS:
            pop()
            value = _mul(value, self.factor())
        return value

    def factor(self):
        base = self.atom()
        if self.tokens[-1] != ("op", "^"):
            return base
        self.next()
        if self.tokens[-1][0] == "num":
            if type(base) is not tuple:
                raise ParseError("exponent applies only to scalar atoms")
            return _power(base, self.next()[1])
        rhs = self.factor()
        if type(base) is tuple and type(rhs) is tuple:
            raise ParseError("'^' between scalars needs a natural-number exponent")
        return _mul(base, rhs)

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            den = 1
            if self.tokens[-1] == ("op", "/"):
                self.next()
                kind, den = self.next()
                if kind != "num" or den == 0:
                    raise ParseError("malformed rational literal")
            return 0, den, {0: val} if val else {}
        if kind == "name":
            if val in _VARIABLES:
                return 1, 1, {_VARIABLES[val]: 1}
            if val in _FORM_ATOMS:
                return _Form((0, 1, {(_FORM_ATOMS[val],): (0, 1, {0: 1})}))
            raise ParseError(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            value = self.expr()
            kind, val = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected ')', found "
                                 + ("end of input" if kind == "end" else repr(val)))
            return value
        raise ParseError("unexpected end of input" if kind == "end" else f"unexpected token {val!r}")


def _check_terms(count: int, degree: int):
    """Refuse, before multiplying, a result that may exceed MAX_TERMS terms:
    it has at most count terms and at most dim S_degree."""
    bound = min(count, graded_piece_dimension(degree))
    if bound > MAX_TERMS:
        raise ResourceLimitError(
            f"a product or power may have {bound} terms, over the cap of {MAX_TERMS}"
        )


def _check_bits(bits: int, n: int):
    """Refuse an n-th power with a coefficient whose |numerator| * denominator
    may need more than MAX_COEFFICIENT_BITS bits, by coefficient_bits."""
    if bits > MAX_COEFFICIENT_BITS:
        raise ResourceLimitError(
            f"parsing, power ^{n}: a coefficient may need {bits} bits, "
            f"over the cap of {MAX_COEFFICIENT_BITS}"
        )


def _twisted(f: _Form):
    from .forms import TwistedForm  # only an expression that holds a form loads forms

    degree, form_degree, coefficients = f
    return TwistedForm(form_degree, degree,
                       {idx: _from_integers(*s) for idx, s in coefficients.items()})


def _add(acc, value, sign: int):
    """acc + sign * value, for sign 1 or -1, summed into acc's term dicts;
    refused with the errors of a sum of polynomials or of forms."""
    if type(acc) is not type(value):
        raise NotHomogeneousError("cannot add a scalar and a differential form")
    if type(acc) is tuple:
        if acc[0] != value[0]:
            raise NotHomogeneousError(f"cannot add degree {acc[0]} and degree {value[0]}")
        return _accumulate(acc, value, sign)
    if acc[1] != value[1]:
        raise NotHomogeneousError("cannot add forms of different form degree")
    if acc[0] != value[0]:
        raise NotHomogeneousError(
            f"cannot add forms with coefficient degrees {acc[0]} and {value[0]}")
    coefficients = acc[2]
    for idx, s in value[2].items():
        if idx not in coefficients:
            coefficients[idx] = s if sign == 1 else _accumulate((s[0], 1, {}), s, -1)
        elif (s := _accumulate(coefficients[idx], s, sign))[2]:
            coefficients[idx] = s
        else:
            del coefficients[idx]
    return acc


def _mul(a, b):
    """a * b: a product of scalars, a scalar times a form, or a wedge."""
    degree = a[0] + b[0]
    check_degree(degree, "parsing")
    a_scalar, b_scalar = type(a) is tuple, type(b) is tuple
    if a_scalar and b_scalar:
        _check_terms(len(a[2]) * len(b[2]), degree)
        return _times(a, b, degree)
    if a_scalar or b_scalar:
        s, (_, form_degree, coefficients) = (a, b) if a_scalar else (b, a)
        return _Form((degree, form_degree, {idx: p for idx, c in coefficients.items()
                                            if (p := _times(s, c, degree))[2]}))
    from .forms import wedge

    w = wedge(_twisted(a), _twisted(b))
    return _Form((degree, w.form_degree, {idx: (degree, p._cleared[0], dict(p._cleared[1]))
                                          for idx, p in w.coefficients.items()}))


def _times(a: tuple, b: tuple, degree: int) -> tuple:
    """a * b for scalars, its terms in the order of sum_of_products: a's
    outer, b's inner.  A monomial b shifts distinct terms to distinct terms,
    so nothing cancels."""
    a_ints, b_ints = a[2], b[2]
    if len(b_ints) == 1:
        ((m2, c2),) = b_ints.items()
        ints = {m1 + m2: c1 * c2 for m1, c1 in a_ints.items()}
    else:
        acc: dict = {}
        _multiply_into(acc, a_ints, b_ints)
        ints = {m: c for m, c in acc.items() if c}
    return degree, a[1] * b[1], ints


def _power(base: tuple, n: int) -> tuple:
    """base ** n for a scalar, refused before it is computed past a cap."""
    degree, den, ints = base
    if len(ints) <= 1:
        ((m, c),) = ints.items() or ((0, 0),)  # zero is 0 times the monomial 1
        degree, den, m, c = _term_power(degree, den, m, c, n)
        return degree, den, {m: c} if c else {}
    degree *= n
    check_degree(degree, "parsing")
    poly = _from_integers(*base)
    terms, bits = power_bounds(poly, n)
    _check_terms(terms, degree)
    _check_bits(bits, n)
    if terms * terms * bits > MAX_POWER_WORK:
        raise ResourceLimitError(
            f"parsing, power ^{n}: an estimated {terms * terms * bits} term products "
            f"times coefficient bits, over the cap of {MAX_POWER_WORK}"
        )
    den, ints = (poly ** n)._cleared
    return degree, den, dict(ints)


def _term_power(degree: int, den: int, m: int, c: int, n: int):
    """(c / den * m) ** n for a monomial m, as (degree, den, m, c), refused
    before it is computed past a cap; a zero c keeps its degree, 0^0 = 1."""
    degree *= n
    check_degree(degree, "parsing")
    if not c:
        den = 1
    elif den != 1 or c * c != 1:  # 1 and -1 need no bits
        c, den = c // (g := gcd(c, den)), den // g
        _check_bits(coefficient_bits(abs(c), den, n), n)
    return degree, den ** n, m * n, c ** n


def parse_value(text: str):
    """Parse an expression into a polynomial or a twisted form."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(text)
    try:
        value = parser.expr()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None
    kind, val = parser.tokens[-1]
    if kind != "end":
        raise ParseError(f"trailing input near {val!r}")
    return _from_integers(*value) if type(value) is tuple else _twisted(value)


def parse_scalar(text: str) -> HomogeneousPolynomial:
    value = parse_value(text)
    if not isinstance(value, HomogeneousPolynomial):
        raise ParseError("expected a scalar polynomial, found a differential form")
    return value
