"""Polynomial arithmetic, parsing and exact linear algebra."""

from fractions import Fraction
from math import comb, lcm
from random import Random

import pytest

from folcurves import parsing, polyring
from folcurves.errors import (
    DegreeMismatchError,
    FolcurvesError,
    NotHomogeneousError,
    ParseError,
    ResourceLimitError,
)
from folcurves.forms import TwistedForm, wedge
from folcurves.linalg import Echelon, kernel_of_columns
from folcurves.parsing import _ALIASES, _FORM_ATOMS, _check_terms, _tokenize, parse_value
from folcurves.polyring import (
    HomogeneousPolynomial,
    degrevlex_key,
    graded_piece_dimension,
    integer_terms,
    mono_str,
    monomials_of_degree,
    parse_polynomial,
    sum_of_products,
)


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
    return HomogeneousPolynomial._raw(degree, {m: c for m, c in acc.items() if c})


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
    """Every factor met in several sums is cleared by integer_terms once, and
    its kept integer terms stay those of its coefficients."""
    real = polyring.integer_terms
    calls = []
    monkeypatch.setattr(polyring, "integer_terms", lambda coeffs: calls.append(1) or real(coeffs))
    rng = Random(24)
    fs = [_random_rational_poly(rng, rng.randint(0, 2)) for _ in range(6)]
    for f in fs:
        for g in fs:
            triples = [(1, f, g), (-1, g, f), (2, f, g)]
            assert sum_of_products(triples) == _former_sum_of_products(triples)
    assert len(calls) == len(fs)
    assert all(polyring._cleared(f) == real(f.terms) for f in fs)


def test_power_matches_repeated_product():
    rng = Random(13)
    for n in range(9):
        f = _random_poly(rng, rng.randint(0, 2))
        product = HomogeneousPolynomial.constant(1)
        for _ in range(n):
            product = product * f
        assert f ** n == product and (f ** n).degree == n * f.degree
    assert HomogeneousPolynomial.zero(2) ** 3 == HomogeneousPolynomial.zero(6)


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


def _rank(vectors):
    ech = Echelon()
    for vec in vectors:
        ech.insert(vec)
    return ech.rank


def test_kernel_identity_and_single_row():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert kernel_of_columns(_columns(identity)) == []
    assert kernel_of_columns(_columns([[1, 1]])) == [{0: Fraction(1), 1: Fraction(-1)}]


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
        for vec in basis:
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
        kernel = kernel_of_columns(columns)
        # the oracle expects Fraction entries, as every caller supplied them
        exact = [{i: Fraction(x) for i, x in col.items()} for col in columns]
        assert kernel == _fraction_kernel_of_columns(exact)
        assert all(type(x) is Fraction for vec in kernel for x in vec.values())
        den = lcm(*(Fraction(x).denominator for row in rows for x in row))
        rank = _bareiss_rank([[int(x * den) for x in row] for row in rows])
        assert _rank(columns) == rank == ncols - len(kernel)
        ech = Echelon()
        for k, col in enumerate(columns):
            before = ech.rank
            assert (ech.insert(col) is None) == (_rank(columns[:k + 1]) == before)


def test_partial_derivative():
    p = parse_polynomial("z0^2*z1 - z3^3")
    assert p.partial(0) == parse_polynomial("2*z0*z1")
    assert p.partial(3) == parse_polynomial("-3*z3^2")


def test_monomial_order_is_total():
    monos = list(monomials_of_degree(3))
    keys = [degrevlex_key(m) for m in monos]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys, reverse=True)


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
        assert new == _outcome(_former_parse_value, text), text
        counts[new[0] if isinstance(new[0], str) else "error"] += 1
    assert min(counts.values()) >= 40, counts


@pytest.mark.parametrize("text", [
    "x + 1", "x^2 - y", "3*x*y + z", "x*dz0 + y^2*dz1", "x + dz0", "dz0^2", "(dz0)^2",
    "x^y", "x^(y)", "2^x", "3/0*x", "3/x", "3/", "x*y)", "x y", "(x+y", "x^", "w*x",
    "x*$", "", "   ", "dz0/\\dz0", "dz0^dz1^dz2^dz3^dz0", "x/\\y - x*y", "2/4*x^0*y",
    "0*x + 0*y", "0*x + y^2", "-(x+y)^0 + 3", "2^dz0", "dz0^x*y", "x^0", "0^0",
])
def test_parser_matches_the_former_parser_on_chosen_inputs(text):
    assert _outcome(parse_value, text) == _outcome(_former_parse_value, text)


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
        assert _outcome(parse_value, text) == _outcome(_former_parse_value, text)

    check()
