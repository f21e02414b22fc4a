"""Polynomial arithmetic, parsing and exact linear algebra."""

import json
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm, prod
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
from folcurves.forms import TwistedForm, random_polynomial
from folcurves.linalg import Echelon, kernel_of_columns, sparse_first
from folcurves.parsing import parse_value
from folcurves.polyring import (
    MAX_DEGREE,
    HomogeneousPolynomial,
    _pack,
    _unpack,
    exponent_tuples,
    graded_piece_dimension,
    integer_terms,
    packed_monomials,
    parse_polynomial,
    sum_of_products,
)
import oracles


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
    assert polyring.MAX_COEFFICIENT_BITS == 10_000
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
    listed = [polyring.mono_str(m) for m in packed_monomials(2)]
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
    for m in exponent_tuples(packed_monomials(degree)):
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


_MIXED = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 12), Fraction(-3, 4),
          Fraction(9, 5), 1, -1, 2, -7]


def _random_rational_poly(rng, degree):
    """Sparse, with coefficients of mixed denominators; zero about one time in six."""
    if rng.random() < 1 / 6:
        return HomogeneousPolynomial.zero(degree)
    monos = exponent_tuples(packed_monomials(degree))
    chosen = rng.sample(monos, rng.randint(1, min(6, len(monos))))
    return HomogeneousPolynomial(degree,
                                 {m: rng.choice(_MIXED) * rng.randint(1, 3) for m in chosen})


_POINTS = oracles.points(19, 2, 10 ** 4)


def _assert_canonical(p):
    """p holds its terms in the canonical cleared form: Fractions read back
    from ints over the lcm of their denominators, that lcm and the ints
    coprime, in the order of the ints; its string parses
    back to it, its lead is the degrevlex largest term, and it equals and
    hashes as the polynomial built again from its terms."""
    den, ints = p._cleared
    terms = p.terms
    assert all(type(c) is Fraction and c for c in terms.values())
    assert den == lcm(*(c.denominator for c in terms.values())) and gcd(den, *ints.values()) == 1
    assert [_unpack(m) for m in ints] == list(terms)
    assert parse_polynomial(str(p)) == p if terms else str(p) == "0"
    if terms:
        lead = oracles.lead_of(terms)
        assert p.lead_monomial() == lead and p.lead_coefficient() == terms[lead]
    rebuilt = HomogeneousPolynomial(p.degree, terms)
    assert p == rebuilt and rebuilt == p and hash(p) == hash(rebuilt)


def _assert_value(p, degree, value, canonical=True):
    """p is of the given degree and, if canonical, in the canonical form,
    and at each seeded point, or the first when not canonical, has the value
    that value(point) gives."""
    if canonical:
        _assert_canonical(p)
    assert p.degree == degree
    assert all(oracles.evaluate(p, x) == value(x) for x in _POINTS[:2 if canonical else 1])


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
        new = sum_of_products(pairs)
        _assert_value(new, total, lambda x: sum(
            sign * oracles.evaluate(a, x) * oracles.evaluate(b, x) for sign, a, b in pairs))
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
    for total, triple in zip(sums, triples):
        _assert_value(total, triple[0][1].degree + triple[0][2].degree, lambda x: sum(
            sign * oracles.evaluate(a, x) * oracles.evaluate(b, x) for sign, a, b in triple))
    assert all(f._cleared == _packed(real(f.terms)) for f in fs)


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


def _operands(rng, count):
    """(degree, rational draws, integral draws) for the differential tests."""
    for _ in range(count):
        degree = rng.randint(0, 3)
        yield degree, [_random_rational_poly(rng, degree) for _ in range(3)], [
            _random_poly(rng, degree) for _ in range(2)]


def _monomial_at(mono, x):
    return prod(v ** e for v, e in zip(x, mono))


def test_cleared_arithmetic_matches_the_former_fraction_methods():
    """Negation, scaling, monomial multiples, partial derivatives, monic
    forms, sums and differences of polynomials built from Fractions and
    from the cleared form: each result canonical and, at seeded points, the
    value of its definition; equality is equality of degree and terms."""
    rng = Random(41)
    scalars = [0, 1, -1, 3, -6, Fraction(1, 2), Fraction(-2, 3), Fraction(9, 4), "5/6", 0.5]
    seen = set()
    for degree, rational, integral in _operands(rng, 40):
        inputs = rational + integral
        for p in inputs:
            def at(x, p=p):
                return oracles.evaluate(p, x)

            lead = p.terms[oracles.lead_of(p.terms)] if p else 1
            for form in (_as_fractions(p), _as_cleared(p)):
                _assert_value(-form, degree, lambda x: -at(x))
                c = rng.choice(scalars)
                _assert_value(form.scale(c), degree, lambda x: Fraction(c) * at(x))
                _assert_value(form * c, degree, lambda x: Fraction(c) * at(x))
                mono = rng.choice(exponent_tuples(packed_monomials(rng.randint(0, 2))))
                c = rng.choice(scalars)
                _assert_value(form.multiply_monomial(mono, c), degree + sum(mono),
                              lambda x: Fraction(c) * _monomial_at(mono, x) * at(x))
                _assert_value(form.multiply_monomial(mono), degree + sum(mono),
                              lambda x: _monomial_at(mono, x) * at(x))
                i = rng.randrange(4)
                _assert_value(form.partial(i), max(degree - 1, 0),
                              lambda x: oracles.derivative_at(p, i, x))
                _assert_value(form.monic(), degree, lambda x: at(x) / lead)
                seen.add((bool(p), p._cleared[0] > 1))
        for p in inputs:
            for q in inputs:
                for a, b in ((_as_fractions(p), _as_cleared(q)), (_as_cleared(p), _as_cleared(q)),
                             (_as_fractions(p), _as_fractions(q))):
                    _assert_value(a + b, degree,
                                  lambda x: oracles.evaluate(p, x) + oracles.evaluate(q, x))
                    _assert_value(a - b, degree,
                                  lambda x: oracles.evaluate(p, x) - oracles.evaluate(q, x))
                    assert (a == b) is (p.terms == q.terms) is (b == a)
                    assert (a != b) is (p.terms != q.terms)
        # sums that cancel, and zeros of another degree
        p = rational[0]
        _assert_value(p - _as_cleared(p), degree, lambda x: 0)
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


@pytest.mark.parametrize("text, n, cap", [
    ("12345*x", 714, None), ("12345*x", 715, "bits"),
    ("1/2*x", 10_000, None), ("1/2*x", 10_001, "bits"),
    ("x + 2^999*y", 10, None), ("x + 2^1000*y", 10, "bits"),
    # (n + 1)^2 * 10n term products times bits: 9.97e8, then 1.003e9
    ("x + 1000*y", 463, None), ("x + 1000*y", 464, "work"),
    ("x + y", 1000, "work"),
    ("x - y", 7, None), ("2/3*x*y - z^2", 5, None), ("x + y + z + t", 11, None),
    ("0*x", 3, None), ("-1", 100_000_001, None),
])
def test_parsed_and_library_powers_apply_one_rule(text, n, cap):
    """A power parsed and the same power taken with ** agree on both sides
    of the coefficient-bit cap and of the work cap: equal results, or the
    same refusal by polyring.check_power but for the stage it names."""
    def outcome(make):
        try:
            return make(), None
        except ResourceLimitError as exc:
            return None, str(exc)

    parsed, parse_error = outcome(lambda: parse_polynomial(f"({text})^{n}"))
    powered, pow_error = outcome(lambda: parse_polynomial(text) ** n)
    assert parsed == powered
    if cap is None:
        assert parse_error is None and pow_error is None
        return
    stage = f"parsing, power ^{n}: "
    assert parse_error.startswith(stage)
    assert pow_error == f"polynomial power ^{n}: " + parse_error[len(stage):]
    assert parse_error[len(stage):].startswith(
        "a coefficient may need" if cap == "bits" else "an estimated")


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


def _assert_canonical_kernel(columns, kernel):
    """kernel is kernel_of_columns' answer for the sparse columns of ints or
    Fractions: one vector per dependent column j, in column order, the
    unique one that lies on j and the independent columns before it, maps
    to zero and is 1 at its first column, given as a primitive (den, ints)
    with den > 0 and ascending keys.  Independence is read off textbook Fraction ranks."""
    ncols = len(columns)
    nrows = 1 + max((max(col) for col in columns if col), default=-1)
    rows = [[col.get(i, 0) for col in columns] for i in range(nrows)]
    ranks = [oracles.fraction_rank([row[:k] for row in rows]) if nrows else 0
             for k in range(ncols + 1)]
    dependent = [j for j in range(ncols) if ranks[j + 1] == ranks[j]]
    assert [max(ints) for _, ints in kernel] == dependent
    for (den, ints), j in zip(kernel, dependent):
        assert type(den) is int and den > 0 and ints[min(ints)] == den
        assert all(type(x) is int for x in ints.values()) and gcd(den, *ints.values()) == 1
        assert list(ints) == sorted(ints)
        assert all(k == j or k not in dependent for k in ints)
        for i in range(nrows):
            assert sum(Fraction(columns[k].get(i, 0)) * x for k, x in ints.items()) == 0


def test_integer_engine_matches_the_fraction_engine():
    """On sparse rational matrices cleared under one denominator, which
    keeps the kernel, kernel_of_columns gives the canonical kernel, and
    Echelon and the oracles' Span give the Bareiss and the textbook Fraction
    ranks."""
    rng = Random(2024)
    assert kernel_of_columns([]) == []
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
        den = lcm(*(Fraction(x).denominator for row in rows for x in row))
        cleared = _columns([[int(x * den) for x in row] for row in rows], ncols)
        kernel = kernel_of_columns(cleared)
        _assert_canonical_kernel(columns, kernel)
        rank = _bareiss_rank([[int(x * den) for x in row] for row in rows])
        assert _rank(columns) == rank == ncols - len(kernel) == oracles.rank(columns)
        assert rank == (oracles.fraction_rank(rows) if rows else 0)
        ech = Echelon()
        for k, col in enumerate(cleared):
            before = ech.rank
            assert (ech.insert(col) is None) == (_rank(columns[:k + 1]) == before)


def test_integer_vectors_are_copied_without_a_denominator_pass():
    """Echelon.insert and kernel_of_columns copy the caller's integer
    vectors, reduce the copies in place and leave the vectors as they were;
    the kernel is the canonical one by textbook Fraction ranks.  linalg
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
        _assert_canonical_kernel(vectors, kernel)
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
    monos = exponent_tuples(packed_monomials(3))
    keys = [(sum(m), -m[3], -m[2], -m[1], -m[0]) for m in monos]
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
# the packed monomials: their order, and arithmetic in every degree 0..12


def _draw(rng, degree):
    """A seeded sparse polynomial with mixed denominators, zero about one
    time in eight."""
    monos = exponent_tuples(packed_monomials(degree))
    chosen = [] if rng.random() < 1 / 8 else rng.sample(monos, rng.randint(1, min(8, len(monos))))
    return HomogeneousPolynomial(degree,
                                 {m: rng.choice(_MIXED) * rng.randint(1, 3) for m in chosen})


def test_packed_arithmetic_matches_the_former_tuple_forms():
    """packed_monomials(k) lists the exponent tuples of degree k in
    descending degrevlex; sums of products, monomial multiples and partial
    derivatives in every degree 0..12 are canonical and have the values of
    their definitions at seeded points (test_cleared_arithmetic_matches_the_former_fraction_methods
    checks their canonical form)."""
    for k in range(13):
        monos = exponent_tuples(packed_monomials(k))
        assert monos == sorted(oracles.monomials(k), key=lambda m: (-m[3], -m[2], -m[1]),
                               reverse=True)
        assert len(monos) == comb(k + 3, 3) and packed_monomials(k) == tuple(map(_pack, monos))
    rng = Random(47)
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    seen = set()
    for case in range(300):
        total = case % 13
        triples = []
        for _ in range(rng.randint(1, 4)):
            da = rng.randint(0, total)
            triples.append((rng.choice((1, -1, 2)), _draw(rng, da), _draw(rng, total - da)))
        new = sum_of_products(triples)
        _assert_value(new, total, canonical=False, value=lambda x: sum(
            sign * oracles.evaluate(a, x) * oracles.evaluate(b, x) for sign, a, b in triples))
        assert new.terms == HomogeneousPolynomial(total, new.terms).terms
        for p in (triples[0][1], new):
            mono = rng.choice(exponent_tuples(packed_monomials(rng.randint(0, 3))))
            coeff = rng.choice((1, 0, -3, Fraction(2, 3)))
            _assert_value(p.multiply_monomial(mono, coeff), p.degree + sum(mono),
                          lambda x: coeff * _monomial_at(mono, x) * oracles.evaluate(p, x), False)
            for i in range(4):
                _assert_value(p.partial(i), max(p.degree - 1, 0),
                              lambda x: oracles.derivative_at(p, i, x), False)
                _assert_value(p.multiply_monomial(units[i]).partial(i), p.degree, lambda x: (
                    oracles.evaluate(p, x) + x[i] * oracles.derivative_at(p, i, x)), False)
        seen.add((total, bool(new)))
    # every degree 0..12, with zero and nonzero sums
    assert {t for t, _ in seen} == set(range(13)) and {z for _, z in seen} == {True, False}


# ---------------------------------------------------------------------------
# the parser against expression trees drawn with their values, and against
# Python's own evaluation of the same text


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


_SCALAR_NAMES = ("x", "y", "z", "t", "z0", "z1", "z2", "z3")
_VARIABLE = {name: i % 4 for i, name in enumerate(_SCALAR_NAMES)}
# the drawn numbers and coefficients, as text and as value
_COEFFICIENTS = {"": 1, "3*": 3, "0*": 0, "2/3*": Fraction(2, 3), "1/4*": Fraction(1, 4),
                 "2^3*": 8, "7/7*": 1, "12*": 12}
_NUMBERS = {"5": 5, "1/2": Fraction(1, 2), "0": 0, "3^2": 9}


def _draw_coefficient(rng):
    text = rng.choice(("", "", *_COEFFICIENTS))
    return text, _COEFFICIENTS[text]


def _draw_monomial(rng, degree):
    """(text, value at a point) of a product of variables and their powers
    of this degree, possibly with a number in front."""
    factors = []
    while degree:
        e = rng.randint(1, degree)
        name = rng.choice(_SCALAR_NAMES)
        factors.append((name if e == 1 and rng.random() < 0.5 else f"{name}^{e}",
                        lambda x, v=_VARIABLE[name], e=e: x[v] ** e))
        degree -= e
    if not factors or rng.random() < 0.3:
        number = rng.choice(tuple(_NUMBERS))
        factors.insert(rng.randrange(len(factors) + 1), (number, lambda x, n=number: _NUMBERS[n]))
    coefficient, c = _draw_coefficient(rng)
    return (coefficient + "*".join(text for text, _ in factors),
            lambda x: c * prod(value(x) for _, value in factors), "product")


def _draw_scalar(rng, degree, depth):
    """(text, value at a point, kind) of a homogeneous scalar expression
    tree of the given degree: a monomial, a signed sum, a power or a
    product, a sum in parentheses wherever it is a factor."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return _draw_monomial(rng, degree)
    if roll < 0.65:
        parts = [_draw_scalar(rng, degree, depth - 1) for _ in range(rng.randint(2, 4))]
        signs = [rng.choice(("", "-", "+"))] + [rng.choice(("+", "-")) for _ in parts[1:]]
        text = signs[0] + _factor(parts[0]) + "".join(
            f" {sign} {_factor(part)}" for sign, part in zip(signs[1:], parts[1:]))
        return text, lambda x: sum((-1 if sign == "-" else 1) * part[1](x)
                                   for sign, part in zip(signs, parts)), "sum"
    if roll < 0.8 and degree:
        e = rng.choice([k for k in range(1, degree + 1) if degree % k == 0])
        text, value, _ = _draw_scalar(rng, e, depth - 1)
        return f"({text})^{degree // e}", lambda x: value(x) ** (degree // e), "power"
    split = rng.randint(0, degree)
    coefficient, c = _draw_coefficient(rng)
    (a, f, _), b = _draw_scalar(rng, split, depth - 1), _draw_scalar(rng, degree - split, depth - 1)
    return f"{coefficient}({a})*{_factor(b)}", lambda x: c * f(x) * b[1](x), "product"


def _factor(part):
    """The text of a drawn tree as a factor: a sum in parentheses."""
    return f"({part[0]})" if part[2] == "sum" else part[0]


def _draw_form(rng, degree, depth):
    """(text, value at a point) of a 1- or 2-form expression with
    coefficients of the given degree, its value a map from index tuple to
    number; a sum of 1- and 2-forms has value None."""
    pieces, values = [], []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(4), 2)
        two = oracles.wedge_at({(a,): 1}, {(b,): 1})
        wedge_text, basis = rng.choice(((f"dz{a}", {(a,): 1}), (f"dz{a} /\\ dz{b}", two),
                                        (f"dz{a}^dz{b}", two)))
        text, value, _ = _draw_scalar(rng, degree, depth)
        pieces.append(f"({text})*{wedge_text}" if rng.random() < 0.5 else f"{wedge_text}*({text})")
        values.append((basis, value))
    sign, joint = rng.choice(("", "-")), rng.choice((" + ", " - "))

    def at(x):
        if len({len(next(iter(basis))) for basis, _ in values}) > 1:
            return None
        out = Counter()
        for n, (basis, value) in enumerate(values):
            c = value(x) * (-1 if (sign if n == 0 else joint == " - ") else 1)
            for idx, s in basis.items():
                out[idx] += s * c
        return {idx: v for idx, v in out.items() if v}

    return sign + joint.join(pieces), at, None


def test_parser_matches_the_former_parser_on_drawn_expressions():
    """Scalar and form expression trees rendered to text parse to values
    that equal the trees' at seeded points; sums of 1- and 2-forms and, now
    and then, a term of the wrong degree added, are refused unless that
    term is zero."""
    rng = Random(21)
    counts = {"poly": 0, "form": 0, "error": 0}
    for _ in range(400):
        degree = rng.randint(0, 4)
        draw = _draw_scalar(rng, degree, 3) if rng.random() < 0.7 else _draw_form(rng, degree, 2)
        text, value, _ = draw
        extra = None
        if rng.random() < 0.15:  # now and then a term of the wrong degree
            extra, extra_value, _ = _draw_monomial(rng, degree + 1)
            text += " + " + extra
        try:
            parsed = parse_value(text)
        except FolcurvesError:
            assert extra is not None or value(_POINTS[0]) is None, text
            counts["error"] += 1
            continue
        if extra is not None:
            assert all(extra_value(x) == 0 for x in _POINTS), text
        for x in _POINTS:
            if isinstance(parsed, HomogeneousPolynomial):
                assert parsed.degree == degree and oracles.evaluate(parsed, x) == value(x), text
            else:
                assert oracles.form_at(parsed, x) == value(x), text
        counts["poly" if isinstance(parsed, HomogeneousPolynomial) else "form"] += 1
    assert min(counts.values()) >= 40, counts


# chosen inputs and what the parser answers: the printed value, or the
# class and message of the refusal
CHOSEN = dict([
    ('x + 1', ('NotHomogeneousError', 'cannot add degree 1 and degree 0')),
    ('x^2 - y', ('NotHomogeneousError', 'cannot add degree 2 and degree 1')),
    ('3*x*y + z', ('NotHomogeneousError', 'cannot add degree 2 and degree 1')),
    ('x*dz0 + y^2*dz1',
     ('NotHomogeneousError', 'cannot add forms with coefficient degrees 1 and 2')),
    ('x + dz0', ('NotHomogeneousError', 'cannot add a scalar and a differential form')),
    ('dz0^2', ('ParseError', 'exponent applies only to scalar atoms')),
    ('(dz0)^2', ('ParseError', 'exponent applies only to scalar atoms')),
    ('x^y', ('ParseError', "'^' between scalars needs a natural-number exponent")),
    ('x^(y)', ('ParseError', "'^' between scalars needs a natural-number exponent")),
    ('2^x', ('ParseError', "'^' between scalars needs a natural-number exponent")),
    ('3/0*x', ('ParseError', 'malformed rational literal')),
    ('3/x', ('ParseError', 'malformed rational literal')),
    ('3/', ('ParseError', 'malformed rational literal')),
    ('x*y)', ('ParseError', "trailing input near ')'")),
    ('x y', ('ParseError', "trailing input near 'y'")),
    ('(x+y', ('ParseError', "expected ')', found end of input")),
    ('x^', ('ParseError', 'unexpected end of input')),
    ('w*x', ('ParseError', "unknown name 'w'")),
    ('x*$', ('ParseError', "unexpected character '$' at position 2")),
    ('', ('ParseError', 'empty expression')),
    ('   ', ('ParseError', 'empty expression')),
    ('dz0/\\dz0', '0'),
    ('dz0^dz1^dz2^dz3^dz0', ('DegreeOverflowError', 'wedge would have form degree 5 > 4')),
    ('x/\\y - x*y', '0'),
    ('2/4*x^0*y', '1/2*z1'),
    ('0*x + 0*y', '0'),
    ('0*x + y^2', ('NotHomogeneousError', 'cannot add degree 1 and degree 2')),
    ('-(x+y)^0 + 3', '2'),
    ('2^dz0', '2*dz0'),
    ('dz0^x*y', 'z0*z1*dz0'),
    ('x^0', '1'),
    ('0^0', '1'),
    ('x^2 + y^2 - x^2 + z^2 + x^2', 'z0^2 + z1^2 + z2^2'),
    ('x*y + y*z - x*y - y*z + t^2 + y*z + x*y', 'z0*z1 + z1*z2 + z3^2'),
    ('1/2*x + 1/3*y - 1/2*x + 1/6*z + 1/4*x', '1/4*z0 + 1/3*z1 + 1/6*z2'),
    ('(x + y)*(x - y) + y^2 - x^2 + x^2', 'z0^2'),
    ('x*dz0 + y*dz1 - x*dz0 + z*dz2 + x*dz0', 'z2*dz2 + z1*dz1 + z0*dz0'),
    ('x*dz0 + y*dz0 - x*dz0 + z*dz1 + x*dz0', 'z2*dz1 + (z0 + z1)*dz0'),
    ('-(x*dz0 + y*dz1) + x*dz0 + y*dz1 + z*dz2 - y*dz1', 'z2*dz2 - z1*dz1'),
    ('dz0^dz1*x - x*dz0^dz1 + y*dz1^dz2 + x*dz0^dz1', 'z1*dz1/\\dz2 + z0*dz0/\\dz1'),
    ('x - y + 0*x^2 + z', ('NotHomogeneousError', 'cannot add degree 1 and degree 2')),
    ('x + y - 0 + z', ('NotHomogeneousError', 'cannot add degree 1 and degree 0')),
    ('x*dz0 + 0*y^2*dz1 + z*dz2',
     ('NotHomogeneousError', 'cannot add forms with coefficient degrees 1 and 2')),
    ('x*dz0 + 0*dz1 + y*dz2',
     ('NotHomogeneousError', 'cannot add forms with coefficient degrees 1 and 0')),
    ('x*dz0 + (y - y)*dz1^dz2 + z*dz3',
     ('NotHomogeneousError', 'cannot add forms of different form degree')),
    ('x*dz0 + y - y + z*dz1',
     ('NotHomogeneousError', 'cannot add a scalar and a differential form')),
    ('3*2^2*x^0*y', '12*z1'),
    ('0*x^3 + 0*y^3', '0'),
    ('0^0*x', 'z0'),
    ('x*1/2*y', '1/2*z0*z1'),
    ('2*x^2 - x*2*x', '0'),
    ('1/2^3*x', '1/8*z0'),
    ('x^01', 'z0'),
    ('x*2^x', ('ParseError', "'^' between scalars needs a natural-number exponent")),
    ('x*y^', ('ParseError', 'unexpected end of input')),
    ('x*w', ('ParseError', "unknown name 'w'")),
    ('x*2^dz0', '2*z0*dz0'),
    ('2^2^2', ('ParseError', "trailing input near '^'")),
    ('x*y*0^0 - y*x', '0'),
    ('2*3^4*dz0', '162*dz0'),
    ('x*y/\\z*(x+y)*t^2', 'z0^2*z1*z2*z3^2 + z0*z1^2*z2*z3^2'),
])


@pytest.mark.parametrize("text", list(CHOSEN))
def test_parser_matches_the_former_parser_on_chosen_inputs(text):
    """Each answer is pinned, as a printed value or an error class and
    message; each value parsed also equals Python's evaluation of the text
    at seeded points."""
    expected = CHOSEN[text]
    try:
        parsed = parse_value(text)
    except FolcurvesError as exc:
        assert (type(exc).__name__, str(exc)) == expected
        return
    assert str(parsed) == expected
    _assert_python_value(text, parsed)


class _FormAt:
    """A differential form's values at a point, index tuple to number, as
    Python's operators combine them: + and - of forms, * and ^ with a
    number or a form (the wedge)."""

    def __init__(self, values):
        self.values = {k: v for k, v in values.items() if v}

    def __add__(self, other):
        if not isinstance(other, _FormAt):
            return NotImplemented
        out = Counter(self.values)
        out.update(other.values)
        return _FormAt(out)

    def __neg__(self):
        return _FormAt({k: -v for k, v in self.values.items()})

    def __pos__(self):
        return self

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _FormAt):
            return _FormAt(oracles.wedge_at(self.values, other.values))
        return _FormAt({k: v * other for k, v in self.values.items()})

    __rmul__ = __pow__ = __rpow__ = __mul__


def _python_value(text, x):
    """text evaluated by Python at the point x: each rational literal and
    numeral a Fraction, ^ as ** and /\\ as *, the variables x's coordinates
    and dz0..dz3 the basis 1-forms."""
    code = text.replace("/\\", "*")
    code = re.sub(r"\b(\d+)/(\d+)\b", r"(F('\1')/F('\2'))", code)
    code = re.sub(r"(?<![\w'])(\d+)\b", r"F('\1')", code).replace("^", "**")
    names = {name: Fraction(x[v]) for name, v in _VARIABLE.items()}
    names.update({f"dz{i}": _FormAt({(i,): 1}) for i in range(4)}, F=Fraction)
    return eval(code, {"__builtins__": {}}, names)


def _assert_python_value(text, parsed):
    for x in _POINTS:
        value = _python_value(text, x)
        if isinstance(parsed, HomogeneousPolynomial):
            assert oracles.evaluate(parsed, x) == value, text
        else:
            assert oracles.form_at(parsed, x) == value.values, text


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
    """Strings of the parser's grammar: each value parsed equals Python's
    evaluation of the same text at seeded points; the rest are refused with
    a FolcurvesError."""
    hypothesis = pytest.importorskip("hypothesis")
    parsed = []

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_grammar_expressions(hypothesis.strategies))
    def check(text):
        try:
            value = parse_value(text)
        except FolcurvesError:
            return
        _assert_python_value(text, value)
        parsed.append(text)

    check()
    assert len(parsed) >= 10, parsed


# ---------------------------------------------------------------------------
# the one-pass parser: the benchmark pools against Python's evaluation, the
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
        value = parse_value(text)
        _assert_python_value(text, value)
        kinds.add(type(value))
    assert kinds == {HomogeneousPolynomial, TwistedForm}


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
    """str writes each term as its sign, its coefficient in lowest terms
    unless 1, and its monomial, the terms in descending degrevlex, formatting
    each monomial once and then reading it from mono_str's cache."""
    p = parse_polynomial("(x + 2*y - 1/3*z + t)^3")
    den, ints = p._cleared
    polyring.mono_str.cache_clear()
    text = str(p)
    assert polyring.mono_str.cache_info().misses == len(ints) == 20
    assert str(p) == text and polyring.mono_str.cache_info().misses == 20
    assert polyring.mono_str.cache_info().maxsize == 4096
    assert text.startswith("z0^3 + 6*z0^2*z1 + 12*z0*z1^2 + 8*z1^3 - z0^2*z2 - 4*z0*z1*z2")
    assert text.endswith(" - z2*z3^2 + z3^3") and " - 1/27*z2^3 " in text
    assert parse_polynomial(text) == p
