"""Polynomial arithmetic, parsing and exact linear algebra."""

import json
import re
import time
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm
from pathlib import Path
from random import Random

import pytest

from folcurves import forms, linalg, parsing, polyring
from folcurves.errors import (
    DegreeMismatchError,
    FolcurvesError,
    NotHomogeneousError,
    ParseError,
    ResourceLimitError,
)
from folcurves.forms import TwistedForm, random_polynomial, wedge
from folcurves.linalg import Echelon, kernel_of_columns, sparse_first
from folcurves.parsing import _ALIASES, _FORM_ATOMS, _check_terms, _tokenize, parse_value
from folcurves.polyring import (
    MAX_DEGREE,
    HomogeneousPolynomial,
    _pack,
    _unpack,
    exponent_tuples,
    graded_piece_dimension,
    integer_terms,
    monomials_of_degree,
    packed_monomials,
    parse_polynomial,
    sum_of_products,
)
from tuple_monomials import ONE_MONO, degrevlex_key, mono_degree, mono_mul, mono_str
from tuple_monomials import monomials_of_degree as former_monomials_of_degree


def test_parse_cancellation_keeps_degree_tag():
    p = parse_polynomial("z0*z2 - z0*z2")
    assert p.is_zero()
    assert p.degree == 2


def test_parse_alias_x_squared():
    p = parse_polynomial("x^2")
    assert p.degree == 2
    assert p.terms == {(2, 0, 0, 0): Fraction(1)}


def test_parse_round_trip():
    p = parse_polynomial("z0*z1 - z2*z3")
    assert len(p.terms) == 2 and p.degree == 2
    assert parse_polynomial(str(p)) == p


def test_parse_rational_literals_and_parens():
    p = parse_polynomial("1/2*(z0 + z1)^2 - 1/2*z0^2")
    q = parse_polynomial("z0*z1 + 1/2*z1^2")
    assert p == q


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError):
        parse_polynomial("z0 + 1")
    with pytest.raises(NotHomogeneousError):
        parse_polynomial("z0^2 + z1")


def test_parse_rejects_malformed():
    for bad in ("", "z0 +", "w0", "z0^(2)", "(z0", "3/0"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_parse_refuses_a_numeral_over_the_digit_cap():
    """A numeral of more than MAX_NUMERAL_DIGITS digits, anywhere, is a
    ParseError naming its digit count, its position and the cap, raised
    before the numeral is converted; one of exactly that many digits parses."""
    assert parsing.MAX_NUMERAL_DIGITS == 4300
    longest = "9" * 4300
    assert parse_value(f"{longest}*x").terms == {(1, 0, 0, 0): Fraction(int(longest))}
    for text, digits, position in (("1" * 5000 + "*x", 5000, 0),
                                   ("x + " + "2" * 4301 + "*y", 4301, 4),
                                   ("x^" + "3" * 4301, 4301, 2),
                                   ("x/" + "4" * 4301, 4301, 2)):
        with pytest.raises(ParseError, match=f"^numeral of {digits} digits at position "
                                             f"{position}, over the cap of 4300$"):
            parse_value(text)


def test_parse_caps_the_terms_of_products_and_powers():
    # bounds: min(364 * 286, dim S_21 = 2024) and min(C(43, 40), dim S_40) = 12341
    for big in ("(x+y+z+t)^11*(x+y+z+t)^10", "(x+y+z+t)^40", "(x+y)^100000000"):
        with pytest.raises(ResourceLimitError):
            parse_polynomial(big)
    assert len(parse_polynomial("(x+y+z+t)^2*(x+y+z+t)^3").terms) == 56
    assert parse_polynomial("x^100000000").terms == {(100000000, 0, 0, 0): Fraction(1)}


def test_parse_caps_the_coefficient_bits_of_powers():
    assert parsing.MAX_COEFFICIENT_BITS == 10_000
    for ok, big, n in (("2^10000*x", "2^10001*x", 10001),
                       ("(2*x)^10000", "(2*x)^10001", 10001),
                       ("(1/2*x)^10000", "(1/2*x)^10001", 10001),
                       ("(x + 2^999*y)^10", "(x + 2^1000*y)^10", 10)):
        parse_polynomial(ok)
        with pytest.raises(ResourceLimitError, match=f"^parsing, power \\^{n}: "):
            parse_polynomial(big)
    assert parse_polynomial("(-1)^100000001*x").terms == {(1, 0, 0, 0): Fraction(-1)}
    # the bound holds: log2(|numerator| * denominator) of every coefficient
    rng = Random(17)
    for _ in range(60):
        f = _random_rational_poly(rng, rng.randint(0, 2))
        n = rng.randint(0, 6)
        den, ints = integer_terms(f.terms)
        norm = max(sum(abs(c) for c in ints.values()), 1)
        bits = n * ((norm - 1).bit_length() + (den - 1).bit_length())
        assert all(abs(c.numerator) * c.denominator <= 2 ** bits for c in (f ** n).terms.values())


def test_graded_piece_dimension():
    assert graded_piece_dimension(0) == 1
    assert graded_piece_dimension(2) == 10
    assert graded_piece_dimension(-1) == 0


def test_degrevlex_listing_degree_two():
    listed = [mono_str(m) for m in monomials_of_degree(2)]
    assert listed == ["z0^2", "z0*z1", "z1^2", "z0*z2", "z1*z2", "z2^2",
                      "z0*z3", "z1*z3", "z2*z3", "z3^2"]


def test_addition_requires_matching_degree():
    with pytest.raises(DegreeMismatchError):
        parse_polynomial("z0") + parse_polynomial("z1^2")
    z = HomogeneousPolynomial.zero(2)
    with pytest.raises(DegreeMismatchError):
        z + HomogeneousPolynomial.zero(3)
    x = parse_polynomial("z0")
    with pytest.raises(DegreeMismatchError):
        sum_of_products([(1, x, x), (1, x, z)])
    with pytest.raises(ValueError):
        sum_of_products([])


def _random_poly(rng, degree):
    terms = {}
    for m in monomials_of_degree(degree):
        c = rng.randint(-5, 5)
        if c and rng.random() < 0.6:
            terms[m] = c
    return HomogeneousPolynomial(degree, terms)


def test_product_degree_commutativity_distributivity():
    rng = Random(7)
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 3))
        g = _random_poly(rng, rng.randint(1, 3))
        h = _random_poly(rng, g.degree)
        assert (f * g).degree == f.degree + g.degree
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert sum_of_products([(1, f, g), (-3, h, f)]) == f * g - (f * h).scale(3)
        cancelled = sum_of_products([(1, f, g), (-1, g, f)])
        assert cancelled.is_zero() and cancelled.degree == f.degree + g.degree


def _former_sum_of_products(pairs) -> HomogeneousPolynomial:
    """The polynomial sum of sign*a*b over the (sign, a, b) triples in pairs.

    pairs must be non-empty, and every product a*b must have one degree.
    All products accumulate into one dict, so a sum of many products builds
    no intermediate polynomials; zero coefficients are dropped once, at the
    end.
    """
    acc: dict = {}
    degree = None
    for sign, a, b in pairs:
        if degree is None:
            degree = a.degree + b.degree
        elif a.degree + b.degree != degree:
            raise DegreeMismatchError(
                f"cannot add degree {degree} and degree {a.degree + b.degree}"
            )
        b_terms = b.terms.items()
        for m1, c1 in a.terms.items():
            c1 = sign * c1
            for m2, c2 in b_terms:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                acc[m] = acc.get(m, 0) + c1 * c2
    if degree is None:
        raise ValueError("an empty sum of products has no degree")
    return HomogeneousPolynomial(degree, {m: c for m, c in acc.items() if c})


_MIXED = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 12), Fraction(-3, 4),
          Fraction(9, 5), 1, -1, 2, -7]


def _random_rational_poly(rng, degree):
    """Sparse, with coefficients of mixed denominators; zero about one time in six."""
    if rng.random() < 1 / 6:
        return HomogeneousPolynomial.zero(degree)
    monos = monomials_of_degree(degree)
    chosen = rng.sample(monos, rng.randint(1, min(6, len(monos))))
    return HomogeneousPolynomial(degree,
                                 {m: rng.choice(_MIXED) * rng.randint(1, 3) for m in chosen})


def test_sum_of_products_matches_the_former_fraction_kernel():
    rng = Random(19)
    seen = set()
    for case in range(240):
        total = rng.randint(0, 4)
        pairs = []
        for _ in range(1 if case % 4 == 0 else rng.randint(2, 6)):
            da = rng.randint(0, total)
            pairs.append((rng.choice((1, -1)), _random_rational_poly(rng, da),
                          _random_rational_poly(rng, total - da)))
        if case % 3 == 1:
            # cancel some triples: negated sign, or the factors swapped
            for sign, a, b in list(pairs):
                pairs.append((-sign, b, a) if rng.random() < 0.5 else (-sign, a, b))
        new, old = sum_of_products(pairs), _former_sum_of_products(pairs)
        assert new == old and new.degree == old.degree
        assert list(new.terms.items()) == list(old.terms.items())
        assert all(type(c) is Fraction for c in new.terms.values())
        seen.add((len(pairs) == 1, new.is_zero(), total == 0,
                  any(c.denominator > 1 for c in new.terms.values())))
    # one-pair products, sums cancelling to zero, constants and results with
    # and without denominators all occurred
    assert {s[0] for s in seen} == {s[1] for s in seen} == {True, False}
    assert {s[2] for s in seen} == {s[3] for s in seen} == {True, False}


def test_integer_terms_clears_denominators_by_their_lcm():
    coeffs = {"a": Fraction(1, 2), "b": Fraction(-2, 3), "c": 5, "d": Fraction(7, 12)}
    den, ints = integer_terms(coeffs)
    assert den == 12
    assert list(ints) == list(coeffs)
    assert all(type(v) is int and v == den * c for v, c in zip(ints.values(), coeffs.values()))
    assert integer_terms(HomogeneousPolynomial.zero(3).terms) == (1, {})
    assert integer_terms({(1, 0, 0, 0): 3, (0, 1, 0, 0): Fraction(-4)}) == (
        1, {(1, 0, 0, 0): 3, (0, 1, 0, 0): -4})
    rng = Random(23)
    for _ in range(50):
        f = _random_rational_poly(rng, rng.randint(0, 3))
        den, ints = integer_terms(f.terms)
        assert den == lcm(*(c.denominator for c in f.terms.values()))
        assert ints == {m: den * c for m, c in f.terms.items()}


def test_sum_of_products_clears_each_factor_once(monkeypatch):
    """Every factor met in several sums is cleared by integer_terms at most
    once, when it is built, and never by a sum; its integer terms stay
    those of its coefficients."""
    real = polyring.integer_terms
    calls = []
    monkeypatch.setattr(polyring, "integer_terms", lambda coeffs: calls.append(1) or real(coeffs))
    rng = Random(24)
    fs = [_random_rational_poly(rng, rng.randint(0, 2)) for _ in range(6)]
    built = len(calls)
    assert 0 < built <= len(fs)
    triples = [[(1, f, g), (-1, g, f), (2, f, g)] for f in fs for g in fs]
    sums = [sum_of_products(t) for t in triples]
    assert len(calls) == built
    assert sums == [_former_sum_of_products(t) for t in triples]
    assert all(f._cleared == _packed(real(f.terms)) for f in fs)


# ---------------------------------------------------------------------------
# the cleared integer form against the former Fraction methods of
# HomogeneousPolynomial, copied verbatim as module functions; only the calls
# between them are renamed (is_zero and sorted_terms inlined), and the
# removed _raw is the constructor, so that no oracle runs the new arithmetic


def _fraction_add(self, other):
    if self.degree != other.degree:
        raise DegreeMismatchError(
            f"cannot add degree {self.degree} and degree {other.degree}"
        )
    acc = dict(self.terms)
    for m, c in other.terms.items():
        acc[m] = acc.get(m, 0) + c
    return HomogeneousPolynomial(self.degree, {m: c for m, c in acc.items() if c})


def _fraction_sub(self, other):
    return _fraction_add(self, _fraction_neg(other))


def _fraction_neg(self):
    return HomogeneousPolynomial(
        self.degree, {m: -c for m, c in self.terms.items()})


def _fraction_scale(self, c):
    c = Fraction(c)
    return HomogeneousPolynomial(
        self.degree, {m: v * c for m, v in self.terms.items()} if c else {})


def _fraction_multiply_monomial(self, mono, coeff=1):
    coeff = Fraction(coeff)
    terms = {mono_mul(m, mono): c * coeff for m, c in self.terms.items()} if coeff else {}
    return HomogeneousPolynomial(self.degree + mono_degree(mono), terms)


def _fraction_lead_monomial(self):
    if not self.terms:
        raise ValueError("zero polynomial has no lead monomial")
    return max(self.terms, key=degrevlex_key)


def _fraction_lead_coefficient(self):
    return self.terms[_fraction_lead_monomial(self)]


def _fraction_monic(self):
    if not self.terms:
        return self
    return _fraction_scale(self, 1 / _fraction_lead_coefficient(self))


def _fraction_partial(self, i):
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


def _fraction_eq(self, other):
    if not isinstance(other, HomogeneousPolynomial):
        return NotImplemented
    if not self.terms and not other.terms:
        return self.degree == other.degree
    return self.degree == other.degree and self.terms == other.terms


def _fraction_str(self):
    if not self.terms:
        return "0"
    parts = []
    for m, c in sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True):
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


def _as_fractions(p):
    """p built again from its Fractions, cleared by the constructor."""
    return HomogeneousPolynomial(p.degree, dict(p.terms))


def _packed(cleared):
    """The cleared form (den, ints) of exponent-tuple keys, with its keys
    packed."""
    den, ints = cleared
    return den, {_pack(m): c for m, c in ints.items()}


def _as_cleared(p):
    """p built again from its cleared form, by _from_integers."""
    den, ints = _packed(integer_terms(p.terms))
    return polyring._from_integers(p.degree, den, ints)


def _assert_same(new, old):
    """new, a fresh result of the integer code, is old, the oracle's result:
    canonical cleared form, str, lead coefficient, terms in the same order
    as Fractions, equality both ways and across forms, and the hash."""
    assert new.degree == old.degree
    (den, ints), (old_den, old_ints) = new._cleared, _packed(integer_terms(old.terms))
    assert den == old_den and list(ints.items()) == list(old_ints.items())
    assert str(new) == _fraction_str(old)
    assert bool(new) == bool(old.terms) and new.is_zero() == (not old.terms)
    if old.terms:
        lead = new.lead_coefficient()
        assert type(lead) is Fraction and lead == _fraction_lead_coefficient(old)
        assert new.lead_monomial() == _fraction_lead_monomial(old)
    assert new == _as_cleared(old) and _as_cleared(old) == new  # both cleared
    assert list(new.terms.items()) == list(old.terms.items())
    assert all(type(c) is Fraction for c in new.terms.values())
    assert new == old and old == new and new == _as_fractions(old)
    assert hash(new) == hash(old) == hash(_as_fractions(old)) == hash(_as_cleared(old))


def _operands(rng, count):
    """(degree, rational draws, integral draws) for the differential tests."""
    for _ in range(count):
        degree = rng.randint(0, 3)
        yield degree, [_random_rational_poly(rng, degree) for _ in range(3)], [
            _random_poly(rng, degree) for _ in range(2)]


def test_cleared_arithmetic_matches_the_former_fraction_methods():
    rng = Random(41)
    scalars = [0, 1, -1, 3, -6, Fraction(1, 2), Fraction(-2, 3), Fraction(9, 4), "5/6", 0.5]
    seen = set()
    for degree, rational, integral in _operands(rng, 40):
        inputs = rational + integral
        for p in inputs:
            for form in (_as_fractions(p), _as_cleared(p)):
                _assert_same(-form, _fraction_neg(p))
                c = rng.choice(scalars)
                _assert_same(form.scale(c), _fraction_scale(p, c))
                _assert_same(form * c, _fraction_scale(p, c))
                mono = rng.choice(monomials_of_degree(rng.randint(0, 2)))
                c = rng.choice(scalars)
                _assert_same(form.multiply_monomial(mono, c),
                             _fraction_multiply_monomial(p, mono, c))
                _assert_same(form.multiply_monomial(mono), _fraction_multiply_monomial(p, mono))
                i = rng.randrange(4)
                _assert_same(form.partial(i), _fraction_partial(p, i))
                _assert_same(form.monic(), _fraction_monic(p))
                seen.add((bool(p), p._cleared[0] > 1))
        for p in inputs:
            for q in inputs:
                for a, b in ((_as_fractions(p), _as_cleared(q)), (_as_cleared(p), _as_cleared(q)),
                             (_as_fractions(p), _as_fractions(q))):
                    _assert_same(a + b, _fraction_add(p, q))
                    _assert_same(a - b, _fraction_sub(p, q))
                    assert (a == b) is _fraction_eq(p, q) is (b == a)
                    assert (a != b) is (not _fraction_eq(p, q))
        # sums that cancel, and zeros of another degree
        p = rational[0]
        _assert_same(p - _as_cleared(p), _fraction_sub(p, p))
        assert _as_cleared(p) + (-p) == HomogeneousPolynomial.zero(degree)
        assert HomogeneousPolynomial.zero(degree) != _as_cleared(HomogeneousPolynomial.zero(degree + 1))
    # zero and nonzero inputs, with and without denominators, all occurred
    assert seen == {(False, False), (True, False), (True, True)}


def test_integral_arithmetic_builds_no_fraction(monkeypatch):
    """On integral polynomials in the cleared form, products, sums and
    integer scaling construct no Fraction; reading terms does."""
    rng = Random(43)
    fs = [random_polynomial(rng.randint(0, 3), rng, bound=4) for _ in range(12)]
    made = []
    monkeypatch.setattr(polyring, "Fraction", lambda *args: made.append(args) or Fraction(*args))
    for f in fs:
        for g in fs:
            total = sum_of_products([(1, f, g), (-2, g, f)])
            if f.degree == g.degree:
                total = f + g - f.scale(3) + (-g).scale(-2)
            assert str(total) and total == total.scale(1)
            f.multiply_monomial((1, 0, 0, 2), 5).partial(3)
    assert made == []
    assert all(type(c) is Fraction for c in total.terms.values())
    assert made, "the patch did not intercept the construction of terms"


def test_power_matches_repeated_product():
    rng = Random(13)
    for n in range(9):
        f = _random_poly(rng, rng.randint(0, 2))
        product = HomogeneousPolynomial.constant(1)
        for _ in range(n):
            product = product * f
        assert f ** n == product and (f ** n).degree == n * f.degree
    assert HomogeneousPolynomial.zero(2) ** 3 == HomogeneousPolynomial.zero(6)


def test_power_refuses_unbounded_work_quickly():
    """A library power over the parser's caps is refused before it is
    computed, naming its stage; a power of a monomial costs nothing."""
    section = parse_polynomial("z0 + 2*z1 + 3*z2")
    for base, n in ((section, 100_000_000), (parse_polynomial("2*z0"), 10_001),
                    (parse_polynomial("z0 + z1"), 1000)):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^polynomial power \\^{n}: "):
            base ** n
        assert time.perf_counter() - started < 1
    # (x+y)^999 is just under the work cap, 1000^2 * 999 term products times bits
    assert polyring.power_bounds(parse_polynomial("x + y"), 999) == (1000, 999)
    assert (parse_polynomial("2*z0") ** 10_000).terms == {(10_000, 0, 0, 0): 2 ** 10_000}
    assert (parse_polynomial("z3") ** 100_000_000).terms == {(0, 0, 0, 100_000_000): 1}
    # the parser refuses first, with its own message
    with pytest.raises(ResourceLimitError, match=r"^parsing, power \^1000: an estimated "):
        parse_polynomial("(x + y)^1000")


def test_serialize_parse_identity_random():
    rng = Random(11)
    for _ in range(30):
        f = _random_poly(rng, rng.randint(0, 4))
        assert parse_polynomial(str(f)) == f


def test_fraction_field_axioms_and_reduction():
    from math import gcd

    rng = Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1
        for value in (a + b, a - b, a * b):
            assert gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0


def _columns(rows, ncols=None):
    """Sparse columns of the dense matrix with the given rows."""
    ncols = len(rows[0]) if ncols is None else ncols
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def _cleared_vector(vec):
    """vec, a sparse vector of ints or Fractions, times the lcm of its
    denominators: the integer vector Echelon takes, of the same rank."""
    den = lcm(*(Fraction(x).denominator for x in vec.values()))
    return {i: int(x * den) for i, x in vec.items()}


def _rank(vectors):
    ech = Echelon()
    for vec in vectors:
        ech.insert(_cleared_vector(vec))
    return ech.rank


def test_kernel_identity_and_single_row():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert kernel_of_columns(_columns(identity)) == []
    assert kernel_of_columns(_columns([[1, 1]])) == [(1, {0: 1, 1: -1})]
    assert kernel_of_columns(_columns([[2, 3]])) == [(3, {0: 3, 1: -2})]  # (1, -2/3)


def _bareiss_rank(rows):
    """Fraction-free elimination over the integers; independent rank oracle."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
    return rank


def test_kernel_of_random_matrix_matches_bareiss():
    rng = Random(5)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(4)]
        columns = _columns(rows)
        rank = _bareiss_rank(rows)
        assert _rank(columns) == rank
        basis = kernel_of_columns(columns)
        assert len(basis) == 8 - rank
        for den, vec in basis:
            assert den > 0 and vec[min(vec)] == den  # the first entry is 1
            for row in rows:
                assert sum(row[j] * v for j, v in vec.items()) == 0


def test_dependent_square_has_rank_two():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert _rank(_columns(rows)) == 2
    assert _rank({j: x for j, x in enumerate(row) if x} for row in rows) == 2
    assert len(kernel_of_columns(_columns(rows))) == 1


def _fraction_kernel_of_columns(columns, normalize: bool = True):
    """Right-kernel basis of the matrix whose j-th column is columns[j].

    Columns are sparse vectors over row indices.  Kernel vectors are sparse
    over column indices and come out in a canonical order (one per dependent
    column, in column order).
    """
    # Pivot rows are not back-substituted, but each stored row only involves
    # coordinates that become pivots later (if at all), so one reduction pass
    # in insertion order is complete.
    pivots: dict = {}  # row index -> (value row, combination row), insertion order
    kernel = []
    for j, col in enumerate(columns):
        v = dict(col)
        combo = {j: Fraction(1)}
        for p, (pv, pc) in pivots.items():
            f = v.get(p)
            if not f:
                continue
            for c, rc in pv.items():
                s = v.get(c, 0) - f * rc
                if s:
                    v[c] = s
                else:
                    v.pop(c, None)
            for c, rc in pc.items():
                s = combo.get(c, 0) - f * rc
                if s:
                    combo[c] = s
                else:
                    combo.pop(c, None)
        if v:
            p = min(v)
            inv = 1 / v[p]
            pivots[p] = ({c: x * inv for c, x in v.items()},
                         {c: x * inv for c, x in combo.items()})
        else:
            if normalize:
                lead = combo[min(combo)]
                combo = {c: x / lead for c, x in combo.items()}
            kernel.append(combo)
    return kernel


def test_integer_engine_matches_the_fraction_engine():
    """Kernels equal those of the former Fraction elimination (kept above as
    the oracle) and ranks equal Bareiss ranks, on sparse rational matrices."""
    from math import lcm

    rng = Random(2024)
    assert kernel_of_columns([]) == _fraction_kernel_of_columns([]) == []
    for _ in range(150):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 11)
        density = rng.choice((0.2, 0.4, 0.7))
        rows = [[0] * ncols for _ in range(nrows)]
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < density:
                    rows[i][j] = rng.choice(
                        (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 7))))
        for j in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
            for row in rows:
                row[j] = 0
        columns = _columns(rows, ncols)
        # the integer engine takes the matrix cleared under one denominator,
        # which keeps its kernel; the oracle takes its Fraction entries
        den = lcm(*(Fraction(x).denominator for row in rows for x in row))
        cleared = _columns([[int(x * den) for x in row] for row in rows], ncols)
        kernel = kernel_of_columns(cleared)
        exact = [{i: Fraction(x) for i, x in col.items()} for col in columns]
        assert [{i: Fraction(x, d) for i, x in vec.items()} for d, vec in kernel] == (
            _fraction_kernel_of_columns(exact))
        assert all(type(d) is int and d > 0 and type(x) is int
                   for d, vec in kernel for x in vec.values())
        rank = _bareiss_rank([[int(x * den) for x in row] for row in rows])
        assert _rank(columns) == rank == ncols - len(kernel)
        ech = Echelon()
        for k, col in enumerate(cleared):
            before = ech.rank
            assert (ech.insert(col) is None) == (_rank(columns[:k + 1]) == before)


def test_integer_vectors_are_copied_without_a_denominator_pass():
    """Echelon.insert and kernel_of_columns copy the caller's integer
    vectors, reduce the copies in place and leave the vectors as they were;
    they agree with the same vectors given to the Fraction oracle.  linalg
    has nothing to clear denominators or build Fractions with."""
    assert not {"Fraction", "integer_terms", "lcm"} & set(vars(linalg))
    rng = Random(29)
    for _ in range(40):
        vectors = [{i: rng.randint(-4, 4) or 1 for i in rng.sample(range(6), rng.randint(1, 4))}
                   for _ in range(rng.randint(1, 8))]
        copies = [dict(v) for v in vectors]
        ech = Echelon()
        pivots = [ech.insert(v) for v in vectors]
        kernel = kernel_of_columns(vectors)
        assert vectors == copies
        exact = [{i: Fraction(x) for i, x in v.items()} for v in vectors]
        assert [{i: Fraction(x, d) for i, x in vec.items()} for d, vec in kernel] == (
            _fraction_kernel_of_columns(exact))
        assert [p is not None for p in pivots] == [
            _rank(vectors[:k + 1]) > _rank(vectors[:k]) for k in range(len(vectors))]


def test_kernel_is_the_same_under_every_row_permutation():
    """kernel_of_columns gives each vector in one canonical form, primitive
    with its entries in ascending column order, so renumbering the rows of
    a matrix, which changes the elimination path, changes no (den, ints)
    pair and no key order.  Checked under every permutation of the rows of
    seeded sparse integer matrices of up to five rows, rank-deficient ones
    and ones with empty columns among them."""
    rng = Random(31)
    deficient = empty = 0
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 9)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.5:  # the last row combines two others
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        for j in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
            for row in rows:
                row[j] = 0
        kernel = kernel_of_columns(_columns(rows, ncols))
        for den, ints in kernel:
            assert den > 0 and ints[min(ints)] == den and gcd(den, *ints.values()) == 1
            assert list(ints) == sorted(ints)
            for row in rows:
                assert sum(row[j] * x for j, x in ints.items()) == 0
        rank = ncols - len(kernel)
        deficient += rank < min(nrows, ncols)
        empty += any(not any(row[j] for row in rows) for j in range(ncols))
        want = [(den, list(ints.items())) for den, ints in kernel]
        for perm in permutations(rows):
            got = kernel_of_columns(_columns(list(perm), ncols))
            assert [(den, list(ints.items())) for den, ints in got] == want
    assert deficient >= 10 and empty >= 10, (deficient, empty)


def test_kernel_in_a_given_echelon_keeps_the_pivots_of_the_independent_columns():
    """kernel_of_columns(columns, ech), on an empty Echelon ech, gives the
    kernel kernel_of_columns(columns) gives and leaves in ech exactly the
    pivots, in order, of a fresh Echelon fed the independent columns in
    order, the columns no kernel vector ends on.  Checked on seeded sparse
    integer matrices, rank-deficient ones among them, with their rows as
    they are and renumbered by sparse_first, which keeps the kernel: the
    resolution reads its free rows off these pivots."""
    rng = Random(37)
    deficient = 0
    for _ in range(120):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
        density = rng.choice((0.15, 0.3, 0.6))
        columns = [{i: rng.randint(-9, 9) or 1 for i in range(nrows) if rng.random() < density}
                   for _ in range(ncols)]
        if ncols > 2 and rng.random() < 0.5:  # the last column combines two others
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            combined = (a * columns[0].get(i, 0) + b * columns[1].get(i, 0) for i in range(nrows))
            columns[-1] = {i: x for i, x in enumerate(combined) if x}
        want = kernel_of_columns(columns)
        deficient += len(want) > max(0, ncols - nrows)
        for renumber in (False, True):
            cols = [dict(col) for col in columns]
            if renumber:
                sparse_first(cols, nrows)
            ech = Echelon()
            assert kernel_of_columns(cols, ech) == kernel_of_columns(cols) == want
            dependent = {max(z) for _, z in want}
            fresh = Echelon()
            for j, col in enumerate(cols):
                if j not in dependent:
                    fresh.insert(col)
            assert list(ech.rows) == list(fresh.rows)
    assert deficient >= 20, deficient


def test_partial_derivative():
    p = parse_polynomial("z0^2*z1 - z3^3")
    assert p.partial(0) == parse_polynomial("2*z0*z1")
    assert p.partial(3) == parse_polynomial("-3*z3^2")


def test_monomial_order_is_total():
    monos = list(monomials_of_degree(3))
    keys = [degrevlex_key(m) for m in monos]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys, reverse=True)
    assert list(packed_monomials(3)) == sorted(packed_monomials(3))


def test_malformed_monomials_and_degrees_over_the_cap_are_refused():
    """Exponent tuples with a negative entry or a length other than four are
    refused wherever a caller gives one, and no polynomial of a degree
    above MAX_DEGREE is made; the cap itself is built."""
    x = HomogeneousPolynomial.variable(0)
    for bad in ((1, -1, 0, 0), (0, 0, 0, -2), (1, 0, 0), (1, 0, 0, 0, 0), ()):
        message = f"^HomogeneousPolynomial: {re.escape(repr(bad))} is not four non-negative"
        for c in (1, 0):
            with pytest.raises(NotHomogeneousError, match=message):
                HomogeneousPolynomial(sum(bad), {bad: c})
        with pytest.raises(NotHomogeneousError, match="^from_term: "):
            HomogeneousPolynomial.from_term(bad)
        with pytest.raises(NotHomogeneousError, match="^multiply_monomial: "):
            x.multiply_monomial(bad)
    top = MAX_DEGREE
    assert top == 2**31 - 1
    over = f"total degree {top + 1} exceeds the degree cap {top}$"
    for stage, make in (
            ("from_term", lambda: HomogeneousPolynomial.from_term((top + 1, 0, 0, 0))),
            ("from_term", lambda: HomogeneousPolynomial.from_term((top, 1, 0, 0))),
            ("HomogeneousPolynomial", lambda: HomogeneousPolynomial(top + 1)),
            ("HomogeneousPolynomial",
             lambda: HomogeneousPolynomial(top, {(top, 0, 0, 0): 1, (top, 1, 0, 0): 1})),
            ("multiply_monomial", lambda: x.multiply_monomial((0, 0, top, 0))),
            (f"polynomial power \\^{top + 1}", lambda: x ** (top + 1)),
            ("polynomial product", lambda: (x ** top) * x)):
        with pytest.raises(ResourceLimitError, match=f"^{stage}: {over}"):
            make()
    edge = x ** top
    assert edge == HomogeneousPolynomial.from_term((top, 0, 0, 0)) == HomogeneousPolynomial(
        top, {(top, 0, 0, 0): 1})
    assert edge.terms == {(top, 0, 0, 0): 1} and edge.lead_monomial() == (top, 0, 0, 0)
    assert str(edge) == f"z0^{top}"
    assert HomogeneousPolynomial.variable(1).multiply_monomial((0, 0, 0, top - 1)).degree == top


# ---------------------------------------------------------------------------
# the packed monomials against the former tuple forms: polyring's
# monomials_of_degree (tuple_monomials), and sum_of_products,
# multiply_monomial, partial, __str__ and lead_monomial as they were on
# exponent-tuple keys, verbatim as functions of a stand-in that holds the
# tuple-keyed cleared form, with the stand-in for _wrap


class _TuplePoly:
    """degree and the cleared form (den, ints) keyed by exponent tuple."""

    __slots__ = ("degree", "_cleared")

    def __init__(self, degree, den, ints):
        self.degree, self._cleared = degree, (den, ints)


_wrap = _TuplePoly


def _tuple_from_integers(degree: int, den: int, ints: dict):
    if den != 1:
        if den < 0:
            den, ints = -den, {m: -c for m, c in ints.items()}
        g = polyring._gcd_with(den, ints.values())
        if g != 1:
            den //= g
            ints = {m: c // g for m, c in ints.items()}
    return _wrap(degree, den, ints)


def _tuple_sum_of_products(pairs):
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
    return _tuple_from_integers(degree, den, {m: c for m, c in acc.items() if c})


def _tuple_multiply_monomial(self, mono, coeff=1):
    num, q = polyring._ratio(coeff)
    degree = self.degree + mono_degree(mono)
    if not num:
        return _wrap(degree, 1, {})
    den, ints = self._cleared
    d, f, g = polyring._scaling(den, ints, num, q)
    e0, e1, e2, e3 = mono
    return _wrap(degree, d, {(m[0] + e0, m[1] + e1, m[2] + e2, m[3] + e3): c // g * f
                             for m, c in ints.items()})


def _tuple_partial(self, i):
    den, ints = self._cleared
    res = {}
    for m, c in ints.items():
        e = m[i]
        if e:
            d = list(m)
            d[i] -= 1
            res[tuple(d)] = c * e
    return _tuple_from_integers(max(self.degree - 1, 0), den, res)


def _tuple_str(self):
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
    return polyring._signed_sum(parts)


def _tuple_lead_monomial(self):
    ints = self._cleared[1]
    if not ints:
        raise ValueError("zero polynomial has no lead monomial")
    return max(ints, key=degrevlex_key)


def _tuple_draw(rng, degree):
    """(packed polynomial, tuple stand-in) of one seeded draw: sparse, mixed
    denominators, zero about one time in eight."""
    monos = former_monomials_of_degree(degree)
    chosen = [] if rng.random() < 1 / 8 else rng.sample(monos, rng.randint(1, min(8, len(monos))))
    coeffs = {m: rng.choice(_MIXED) * rng.randint(1, 3) for m in chosen}
    den, ints = integer_terms(coeffs)
    return HomogeneousPolynomial(degree, coeffs), _TuplePoly(degree, den, ints)


def _assert_same_layout(new, old):
    """new, a packed polynomial, holds old's cleared form, keys unpacked, in
    the same order."""
    den, ints = new._cleared
    assert (new.degree, den) == (old.degree, old._cleared[0])
    assert [(_unpack(m), c) for m, c in ints.items()] == list(old._cleared[1].items())


def test_packed_arithmetic_matches_the_former_tuple_forms():
    for k in range(13):
        former = former_monomials_of_degree(k)
        assert monomials_of_degree(k) == former == tuple(exponent_tuples(packed_monomials(k)))
        assert packed_monomials(k) == tuple(_pack(m) for m in former)
    rng = Random(47)
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    seen = set()
    for case in range(300):
        total = case % 13
        triples, stand_ins = [], []
        for _ in range(rng.randint(1, 4)):
            da = rng.randint(0, total)
            (a, ta), (b, tb) = _tuple_draw(rng, da), _tuple_draw(rng, total - da)
            sign = rng.choice((1, -1, 2))
            triples.append((sign, a, b))
            stand_ins.append((sign, ta, tb))
        new, old = sum_of_products(triples), _tuple_sum_of_products(stand_ins)
        _assert_same_layout(new, old)
        assert str(new) == _tuple_str(old)
        if new:
            assert new.lead_monomial() == _tuple_lead_monomial(old)
            assert new.sorted_terms()[0][0] == new.lead_monomial()
        for p, tp in ((triples[0][1], stand_ins[0][1]), (new, old)):
            mono = rng.choice(former_monomials_of_degree(rng.randint(0, 3)))
            coeff = rng.choice((1, 0, -3, Fraction(2, 3)))
            _assert_same_layout(p.multiply_monomial(mono, coeff),
                                _tuple_multiply_monomial(tp, mono, coeff))
            for i in range(4):
                _assert_same_layout(p.partial(i), _tuple_partial(tp, i))
                _assert_same_layout(p.multiply_monomial(units[i]).partial(i),
                                    _tuple_partial(_tuple_multiply_monomial(tp, units[i]), i))
        seen.add((total, bool(new)))
    # every degree 0..12, with zero and nonzero sums
    assert {t for t, _ in seen} == set(range(13)) and {z for _, z in seen} == {True, False}


# ---------------------------------------------------------------------------
# the parser against the former parser, which built a polynomial for every
# atom and ran a polynomial product for every '*' and '^'


class _FormerParser:
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
        return value

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.term()
        if negate:
            value = _former_neg(value)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = _former_add(value, _former_neg(rhs) if val == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in ("*", "/\\"):
                self.next()
                value = _former_mul(value, self.factor())
            else:
                return value

    def factor(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind2, val2 = self.peek()
            if kind2 == "num":
                if not isinstance(base, HomogeneousPolynomial):
                    raise ParseError("exponent applies only to scalar atoms")
                self.next()
                count = comb(len(base.terms) + val2 - 1, val2) if base else 1
                _check_terms(count, val2 * base.degree)
                return base ** val2
            rhs = self.factor()
            if isinstance(base, HomogeneousPolynomial) and isinstance(
                rhs, HomogeneousPolynomial
            ):
                raise ParseError("'^' between scalars needs a natural-number exponent")
            return _former_mul(base, rhs)
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
                return HomogeneousPolynomial.constant(Fraction(val, v3))
            return HomogeneousPolynomial.constant(val)
        if kind == "name":
            if val in _ALIASES:
                return HomogeneousPolynomial.variable(_ALIASES[val])
            if val in _FORM_ATOMS:
                return TwistedForm.basis_covector(_FORM_ATOMS[val])
            raise ParseError(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}")


def _former_neg(value):
    return -value


def _former_add(a, b):
    if isinstance(a, HomogeneousPolynomial) != isinstance(b, HomogeneousPolynomial):
        raise NotHomogeneousError("cannot add a scalar and a differential form")
    try:
        return a + b
    except DegreeMismatchError as exc:
        raise NotHomogeneousError(str(exc)) from exc


def _former_mul(a, b):
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


def _former_parse_value(text: str):
    if not text or not text.strip():
        raise ParseError("empty expression")
    try:
        return _FormerParser(text).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def _layout(value):
    """Everything a parsed value holds, in dict order, with coefficient types."""
    if isinstance(value, HomogeneousPolynomial):
        return ("poly", value.degree,
                [(m, type(c), c) for m, c in value.terms.items()])
    return ("form", value.form_degree, value.coefficient_degree,
            [(idx, _layout(p)) for idx, p in value.coefficients.items()])


def _outcome(parse, text):
    try:
        return _layout(parse(text))
    except FolcurvesError as exc:
        return type(exc), str(exc)


# the two messages of the former parser at the end of the input, in the
# wording of the parser, which names the end of the input
_END_OF_INPUT = {"unexpected token None": "unexpected end of input",
                 "expected ')', found None": "expected ')', found end of input"}


def _former_outcome(text):
    outcome = _outcome(_former_parse_value, text)
    if outcome[0] is ParseError:
        return ParseError, _END_OF_INPUT.get(outcome[1], outcome[1])
    return outcome


_SCALAR_NAMES = ("x", "y", "z", "t", "z0", "z1", "z2", "z3")


def _draw_coefficient(rng):
    return rng.choice(("", "", "3*", "0*", "2/3*", "1/4*", "2^3*", "7/7*", "12*"))


def _draw_monomial(rng, degree):
    """A product of variables and their powers of this degree, possibly
    with a number in front."""
    factors = []
    while degree:
        e = rng.randint(1, degree)
        name = rng.choice(_SCALAR_NAMES)
        factors.append(name if e == 1 and rng.random() < 0.5 else f"{name}^{e}")
        degree -= e
    if not factors or rng.random() < 0.3:
        factors.insert(rng.randrange(len(factors) + 1), rng.choice(("5", "1/2", "0", "3^2")))
    return _draw_coefficient(rng) + "*".join(factors)


def _draw_scalar(rng, degree, depth):
    """A homogeneous scalar expression of the given degree."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return _draw_monomial(rng, degree)
    if roll < 0.65:
        text = rng.choice(("", "-", "+")) + _unsigned(_draw_scalar(rng, degree, depth - 1))
        for _ in range(rng.randint(1, 3)):
            text += rng.choice((" + ", " - ")) + _unsigned(_draw_scalar(rng, degree, depth - 1))
        return text
    if roll < 0.8 and degree:
        e = rng.choice([k for k in range(1, degree + 1) if degree % k == 0])
        return f"({_draw_scalar(rng, e, depth - 1)})^{degree // e}"
    split = rng.randint(0, degree)
    return (f"{_draw_coefficient(rng)}({_draw_scalar(rng, split, depth - 1)})"
            f"*{_unsigned(_draw_scalar(rng, degree - split, depth - 1))}")


def _unsigned(text):
    return f"({text})" if text[0] in "+-" else text


def _draw_form(rng, degree, depth):
    """A 1- or 2-form expression with coefficients of the given degree."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(4), 2)
        wedge_text = rng.choice((f"dz{a}", f"dz{a} /\\ dz{b}", f"dz{a}^dz{b}"))
        coefficient = _draw_scalar(rng, degree, depth)
        if rng.random() < 0.5:
            pieces.append(f"({coefficient})*{wedge_text}")
        else:
            pieces.append(f"{wedge_text}*({coefficient})")
    return rng.choice(("", "-")) + rng.choice((" + ", " - ")).join(pieces)


def test_parser_matches_the_former_parser_on_drawn_expressions():
    """Equal values, with the same terms in the same dict order, or the same
    exception with the same message."""
    rng = Random(21)
    counts = {"poly": 0, "form": 0, "error": 0}
    for _ in range(400):
        degree = rng.randint(0, 4)
        if rng.random() < 0.7:
            text = _draw_scalar(rng, degree, 3)
        else:
            text = _draw_form(rng, degree, 2)
        if rng.random() < 0.15:  # now and then a term of the wrong degree
            text += " + " + _draw_monomial(rng, degree + 1)
        new = _outcome(parse_value, text)
        assert new == _former_outcome(text), text
        counts[new[0] if isinstance(new[0], str) else "error"] += 1
    assert min(counts.values()) >= 40, counts


@pytest.mark.parametrize("text", [
    "x + 1", "x^2 - y", "3*x*y + z", "x*dz0 + y^2*dz1", "x + dz0", "dz0^2", "(dz0)^2",
    "x^y", "x^(y)", "2^x", "3/0*x", "3/x", "3/", "x*y)", "x y", "(x+y", "x^", "w*x",
    "x*$", "", "   ", "dz0/\\dz0", "dz0^dz1^dz2^dz3^dz0", "x/\\y - x*y", "2/4*x^0*y",
    "0*x + 0*y", "0*x + y^2", "-(x+y)^0 + 3", "2^dz0", "dz0^x*y", "x^0", "0^0",
    # a term that cancels in one addend and comes back in a later one goes last
    "x^2 + y^2 - x^2 + z^2 + x^2", "x*y + y*z - x*y - y*z + t^2 + y*z + x*y",
    "1/2*x + 1/3*y - 1/2*x + 1/6*z + 1/4*x", "(x + y)*(x - y) + y^2 - x^2 + x^2",
    "x*dz0 + y*dz1 - x*dz0 + z*dz2 + x*dz0", "x*dz0 + y*dz0 - x*dz0 + z*dz1 + x*dz0",
    "-(x*dz0 + y*dz1) + x*dz0 + y*dz1 + z*dz2 - y*dz1", "dz0^dz1*x - x*dz0^dz1 + y*dz1^dz2 + x*dz0^dz1",
    # a zero coefficient of the wrong degree in the middle of a sum
    "x - y + 0*x^2 + z", "x + y - 0 + z", "x*dz0 + 0*y^2*dz1 + z*dz2", "x*dz0 + 0*dz1 + y*dz2",
    "x*dz0 + (y - y)*dz1^dz2 + z*dz3", "x*dz0 + y - y + z*dz1",
    # runs of numbers and variables, multiplied as integers: zeros, 0^0 and
    # the factors that end a run (the caps are pinned below)
    "3*2^2*x^0*y", "0*x^3 + 0*y^3", "0^0*x", "x*1/2*y", "2*x^2 - x*2*x", "1/2^3*x",
    "x^01", "x*2^x", "x*y^", "x*w", "x*2^dz0", "2^2^2", "x*y*0^0 - y*x", "2*3^4*dz0",
    "x*y/\\z*(x+y)*t^2",
])
def test_parser_matches_the_former_parser_on_chosen_inputs(text):
    assert _outcome(parse_value, text) == _former_outcome(text)


@pytest.mark.parametrize("text, message", [
    ("x+", "unexpected end of input"), ("x^", "unexpected end of input"),
    ("x*", "unexpected end of input"), ("(", "unexpected end of input"),
    ("-", "unexpected end of input"), ("x*dz0 - ", "unexpected end of input"),
    ("(x+y", "expected ')', found end of input"), ("x*(y", "expected ')', found end of input"),
    ("(x+y x", "expected ')', found 'x'"), ("x + )", "unexpected token ')'"),
])
def test_errors_at_the_end_of_the_input_name_it(text, message):
    assert _outcome(parse_value, text) == (ParseError, message)


def _grammar_expressions(st):
    """Strings drawn from the parser's grammar, with small numbers and
    exponents; many are not homogeneous or mix scalars and forms."""
    nat = st.integers(0, 12).map(str)
    leaf = st.one_of(nat, st.builds("{}/{}".format, nat, nat),
                     st.sampled_from(_SCALAR_NAMES + ("dz0", "dz1", "dz2", "dz3")))

    def extend(atom):
        factor = st.one_of(atom, st.builds("{}^{}".format, atom, st.integers(0, 3)),
                           st.builds("{}^{}".format, atom, atom))
        term = st.builds(lambda first, rest: first + "".join(op + f for op, f in rest),
                         factor, st.lists(st.tuples(st.sampled_from(("*", "/\\")), factor),
                                          max_size=2))
        expr = st.builds(lambda sign, first, rest: sign + first + "".join(
            op + t for op, t in rest), st.sampled_from(("", "-", "+")), term,
            st.lists(st.tuples(st.sampled_from((" + ", " - ")), term), max_size=2))
        return st.one_of(expr.map("({})".format), expr)

    return st.recursive(leaf, extend, max_leaves=10)


def test_parser_matches_the_former_parser_on_hypothesis_draws():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_grammar_expressions(hypothesis.strategies))
    def check(text):
        assert _outcome(parse_value, text) == _former_outcome(text)

    check()


# ---------------------------------------------------------------------------
# the one-pass parser: the benchmark pools against the former parser, the
# caps inside its in-place sums, and the objects it builds

_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _pool_texts():
    """The contact form, every rao-pool omega (and the pencil's first form)
    and every line of every hilbert-pool ideal."""
    rao = json.loads((_DATA / "rao_pool.json").read_text())
    entries = [rao["pencil"], rao["warmup"]] + [
        p for key in ("degree2", "degree2_special", "degree3") for p in rao[key]]
    texts = ["z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2", rao["pencil"]["first"]]
    texts += [entry["omega"] for entry in entries]
    hilbert = json.loads((_DATA / "hilbert_pool.json").read_text())
    texts += [line for entry in hilbert["ideals"] + [hilbert["warmup"]]
              for line in entry["text"].splitlines() if line.strip()]
    return texts


def test_parser_matches_the_former_parser_on_the_benchmark_pools():
    texts = _pool_texts()
    assert len(texts) == 2 + 75 + 723
    kinds = set()
    for text in texts:
        new = _outcome(parse_value, text)
        assert new == _former_outcome(text), text
        kinds.add(new[0])
    assert kinds == {"poly", "form"}


@pytest.mark.parametrize("text, message", [
    ("x^2 + y^2 + (x+y+z+t)^40 + z^2",
     "a product or power may have 12341 terms, over the cap of 2000"),
    ("x*dz0 + (x+y+z+t)^11*(x+y+z+t)^10*dz1 + y*dz2",
     "a product or power may have 2024 terms, over the cap of 2000"),
    ("x + y + 2^10001*x + z",
     "parsing, power ^10001: a coefficient may need 10001 bits, over the cap of 10000"),
    ("x^2*dz0 + y^2*dz1 - (1/2*x)^10001*dz2",
     "parsing, power ^10001: a coefficient may need 10001 bits, over the cap of 10000"),
    ("x + (x+y)^1999 + y", "parsing, power ^1999: an estimated 7996000000 term products "
                           "times coefficient bits, over the cap of 1000000000"),
    ("x^2 + y^2 + x^2147483647*x + z^2",
     "parsing: total degree 2147483648 exceeds the degree cap 2147483647"),
    # in a run of numbers and variables, multiplied as integers, each cap
    # fires at the power or product, and with the message, of a product of
    # term dicts: a numeral power later in the run, a power before its
    # product, a product after its power, and a cap before a bad name
    ("x + y*3^6310 + z", "parsing, power ^6310: a coefficient may need 12620 bits, "
                         "over the cap of 10000"),
    ("x^2 + x^2147483648*y + z^2",
     "parsing: total degree 2147483648 exceeds the degree cap 2147483647"),
    ("x^6 + x^5*y^2147483647 + y^6",
     "parsing: total degree 2147483652 exceeds the degree cap 2147483647"),
    ("y + 3*x^2147483647*x*w + z",
     "parsing: total degree 2147483648 exceeds the degree cap 2147483647"),
])
def test_caps_fire_inside_a_long_sum_with_their_messages(text, message):
    assert _outcome(parse_value, text) == (ResourceLimitError, message)


def test_parsing_builds_one_polynomial_or_form(monkeypatch):
    """A 1-form without a wedge builds one TwistedForm, holding one
    polynomial per coefficient, and runs no polynomial sum, product or power
    and no wedge; a polynomial builds one polynomial.  A hilbert-pool line,
    a sum of products of numbers and powers of variables, multiplies no term
    dicts: it runs none of _mul, _times and _power."""
    built = {"forms": 0, "polynomials": 0}
    init, wrap = TwistedForm.__init__, polyring._wrap

    def counted_init(self, *args):
        built["forms"] += 1
        init(self, *args)

    def counted_wrap(*args):
        built["polynomials"] += 1
        return wrap(*args)

    def refused(*args):
        raise AssertionError("the parser ran polynomial or form arithmetic")

    monkeypatch.setattr(TwistedForm, "__init__", counted_init)
    monkeypatch.setattr(polyring, "_wrap", counted_wrap)
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale"):
        monkeypatch.setattr(HomogeneousPolynomial, name, refused)
    monkeypatch.setattr(forms, "wedge", refused)
    rao = json.loads((_DATA / "rao_pool.json").read_text())
    for text in ["z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2", rao["degree2"][0]["omega"],
                 rao["degree3"][0]["omega"], "-(x*dz0 - y*dz1) + x*dz0 - z*dz2"]:
        built.update(forms=0, polynomials=0)
        form = parse_value(text)
        assert built == {"forms": 1, "polynomials": len(form.coefficients)}
    for text in ["3*z0^3*z1 + 2*z0*z1^2*z2 - 1*z0*z2^3", "(x - y)*(x + y) + 1/2*z^2", "x - x"]:
        built.update(forms=0, polynomials=0)
        parse_value(text)
        assert built == {"forms": 0, "polynomials": 1}
    for name in ("_mul", "_times", "_power"):
        monkeypatch.setattr(parsing, name, refused)
    hilbert = json.loads((_DATA / "hilbert_pool.json").read_text())
    lines = [line for entry in hilbert["ideals"] + [hilbert["warmup"]]
             for line in entry["text"].splitlines() if line.strip()]
    assert len(lines) == 723
    for text in lines:
        built.update(forms=0, polynomials=0)
        assert parse_value(text).degree > 0
        assert built == {"forms": 0, "polynomials": 1}


def test_variable_refuses_an_index_outside_0_to_3():
    assert [HomogeneousPolynomial.variable(i).terms for i in range(4)] == [
        {m: 1} for m in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    for bad in (4, -1, 2**32):
        with pytest.raises(NotHomogeneousError, match=f"^variable: {bad} is not an index 0..3$"):
            HomogeneousPolynomial.variable(bad)


def test_printing_formats_each_monomial_once():
    """str writes what the former tuple printer wrote, formatting each
    monomial once and then reading it from mono_str's cache."""
    p = parse_polynomial("(x + 2*y - 1/3*z + t)^3")
    den, ints = p._cleared
    old = _tuple_str(_TuplePoly(3, den, {_unpack(m): c for m, c in ints.items()}))
    polyring.mono_str.cache_clear()
    assert str(p) == old and polyring.mono_str.cache_info().misses == len(ints) == 20
    assert str(p) == old and polyring.mono_str.cache_info().misses == 20
    assert polyring.mono_str.cache_info().maxsize == 4096
