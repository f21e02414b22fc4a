"""Twisted forms: wedge, contraction, projectivity, the foliation pipeline."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from folcurves import forms
from folcurves.errors import (
    DegreeMismatchError,
    DegreeOverflowError,
    NotContactError,
    NotProjectiveError,
    ProportionalInputError,
    ResourceLimitError,
    WrongFormDegreeError,
    ZeroFormError,
)
from folcurves.forms import (
    TwistedForm,
    _merge_sign,
    contract_with_field,
    exterior_derivative,
    is_contact_form,
    is_decomposable,
    is_projective,
    legendrian_foliation,
    legendrian_sample,
    parse_form,
    pencil_form,
    radial_contraction,
    random_polynomial,
    random_projective_oneform,
    singular_ideal,
    standard_contact_form,
    vector_field_to_twoform,
    wedge,
)
from folcurves.groebner import GradedIdeal, curve_invariants
from folcurves.polyring import (NVARS, HomogeneousPolynomial, exponent_tuples, packed_monomials,
                                parse_polynomial)
from folcurves.resolution import rao_module_dimensions

W1 = pencil_form()
W2 = standard_contact_form()

EXPECTED_WEDGE = "z0*z2*dz1/\\dz3 - z0*z3*dz1/\\dz2 - z1*z2*dz0/\\dz3 + z1*z3*dz0/\\dz2"


def _random_form(rng, q, coeff_degree=None):
    coeff_degree = coeff_degree or rng.randint(1, 2)
    coefficients = {}
    for idx in combinations(range(4), q):
        p = random_polynomial(coeff_degree, rng, bound=4)
        if p:
            coefficients[idx] = p
    return TwistedForm(q, coeff_degree, coefficients)


def test_wedge_pencil_contact_displayed_formula():
    result = wedge(W1, W2)
    assert str(result) == EXPECTED_WEDGE
    assert result == parse_form(EXPECTED_WEDGE)


def test_wedge_antisymmetry_and_square_zero():
    rng = Random(1)
    for _ in range(15):
        a = _random_form(rng, 1)
        b = _random_form(rng, 1)
        assert wedge(a, b) == -wedge(b, a)
        assert wedge(a, a).is_zero()


def test_wedge_associativity():
    rng = Random(2)
    for _ in range(10):
        a = _random_form(rng, 1, 1)
        b = _random_form(rng, 1, 1)
        c = _random_form(rng, 1, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_degree_overflow():
    four_form = TwistedForm.volume()
    with pytest.raises(DegreeOverflowError):
        wedge(four_form, parse_form("dz0"))


def test_radial_contraction_examples():
    assert radial_contraction(W1).is_zero()
    dz0 = parse_form("dz0")
    assert radial_contraction(dz0) == TwistedForm.from_polynomial(parse_polynomial("z0"))
    assert radial_contraction(wedge(W1, W2)).is_zero()


def test_contraction_leibniz_identity():
    rng = Random(3)
    for _ in range(30):
        qa = rng.randint(1, 2)
        qb = rng.randint(1, min(3, 4 - qa))
        a = _random_form(rng, qa)
        b = _random_form(rng, qb)
        lhs = radial_contraction(wedge(a, b))
        rhs = wedge(radial_contraction(a), b) + \
            wedge(a, radial_contraction(b)).scale((-1) ** qa)
        assert lhs == rhs


def test_is_projective():
    assert is_projective(W2)
    assert not is_projective(parse_form("dz0"))
    assert is_projective(wedge(W1, W2))


def test_is_decomposable():
    assert is_decomposable(wedge(W1, W2))
    assert not is_decomposable(parse_form("dz0/\\dz1 + dz2/\\dz3"))
    assert is_decomposable(TwistedForm.zero(2, 2))
    with pytest.raises(WrongFormDegreeError):
        is_decomposable(W1)


def test_singular_ideal_pencil_contact():
    ideal = singular_ideal(wedge(W1, W2))
    reference = GradedIdeal.from_expressions(["z0*z2", "z0*z3", "z1*z2", "z1*z3"])
    assert ideal.equals(reference)
    assert curve_invariants(ideal) == (2, -1)
    with pytest.raises(ZeroFormError):
        singular_ideal(TwistedForm.zero(2, 2))
    with pytest.raises(WrongFormDegreeError):
        singular_ideal(W1)


def test_pencil_invariance_of_singular_ideal():
    # replacing b by b + f*a does not change the pencil, hence not the ideal
    rng = Random(8)
    a = W2
    b = random_projective_oneform(2, rng)
    f = parse_polynomial("z0 - 2*z3")
    ideal1 = singular_ideal(wedge(a, b))
    shifted = b + a.scale_by_polynomial(f)
    ideal2 = singular_ideal(wedge(a, shifted))
    assert ideal1.equals(ideal2)


def test_legendrian_foliation_degree1():
    presentation = legendrian_foliation(W2, W1)
    assert presentation.degree == 1
    assert presentation.conormal_twists == (-2, -2)
    assert curve_invariants(presentation.ideal) == (2, -1)
    assert rao_module_dimensions(presentation.ideal).total == 1


def test_legendrian_foliation_degree2_sample():
    rng = Random(0)
    presentation = legendrian_sample(2, rng)
    assert presentation.degree == 2
    assert presentation.conormal_twists == (-2, -3)
    assert curve_invariants(presentation.ideal) == (5, 1)
    assert presentation.singular_curve_invariants() == (5, 1)


def test_legendrian_degree3_sample_has_degree10():
    rng = Random(0)
    presentation = legendrian_sample(3, rng)
    deg, _ = curve_invariants(presentation.ideal)
    assert deg == 10


def test_legendrian_sample_error_names_the_stage():
    with pytest.raises(ResourceLimitError, match=r"^legendrian_sample, degree 3: "
                                                 r"no one-dimensional sample found in 0 draws$"):
        legendrian_sample(3, Random(0), max_redraws=0)


def test_legendrian_sample_makes_one_wedge_per_draw(monkeypatch):
    """Three draws, the first two proportional to the contact form, make
    three wedges, one contact ^ omega per draw, and no check of either
    form: the standard contact form is contact and projective
    (test_contact_check, test_is_projective), and so is every draw
    (test_random_projective_oneform_is_projective).  The sample is
    legendrian_foliation's."""
    draws, wedges, checks = [], [], []
    real_draw, real_wedge = forms.random_projective_oneform, forms.wedge
    proportional = W2.scale_by_polynomial(parse_polynomial("z0 + 2*z3"))

    def draw(degree, rng):
        draws.append(real_draw(degree, rng) if len(draws) == 2 else proportional)
        return draws[-1]

    monkeypatch.setattr(forms, "random_projective_oneform", draw)
    monkeypatch.setattr(forms, "wedge", lambda a, b: wedges.append(a) or real_wedge(a, b))
    for name in ("is_contact_form", "_check_projective_one_form"):
        real_check = getattr(forms, name)
        monkeypatch.setattr(forms, name, lambda *args, real_check=real_check, name=name: (
            checks.append(name) or real_check(*args)))
    presentation = legendrian_sample(2, Random(0))
    assert (len(draws), len(wedges), checks) == (3, 3, [])
    expected = legendrian_foliation(W2, draws[2])
    assert (presentation.two_form, presentation.degree, presentation.conormal_twists) == (
        expected.two_form, expected.degree, expected.conormal_twists)
    assert presentation.ideal.generators == expected.ideal.generators


def test_legendrian_rejections():
    with pytest.raises(NotContactError):
        legendrian_foliation(W1, W2)  # pencil form is not contact
    with pytest.raises(ProportionalInputError):
        legendrian_foliation(W2, W2.scale(3))
    with pytest.raises(ProportionalInputError):
        legendrian_foliation(W2, W2.scale_by_polynomial(parse_polynomial("z2")))
    with pytest.raises(NotProjectiveError):
        legendrian_foliation(W2, parse_form("z0*dz0"))


def test_contact_check():
    assert is_contact_form(W2)
    assert not is_contact_form(W1)
    assert is_contact_form(parse_form("z0*dz2 - z2*dz0 + z1*dz3 - z3*dz1"))


# the former is_contact_form, kept verbatim as the oracle of the Koszul test:
# d(w) ^ w compared with a constant multiple of i_R(vol)
def _former_is_contact_form(form: TwistedForm) -> bool:
    """Cheap contact test: d(w) ^ w equals a nonzero constant multiple of i_R(vol).

    For linear-coefficient 1-forms this is equivalent to nowhere degeneracy.
    """
    if form.form_degree != 1 or form.coefficient_degree != 1:
        return False
    three_form = wedge(exterior_derivative(form), form)
    if three_form.is_zero():
        return False
    model = radial_contraction(TwistedForm.volume())
    ref = model.coefficient((1, 2, 3))  # the z0 slot
    got = three_form.coefficient((1, 2, 3))
    if got.is_zero():
        return False
    ref_den, ref_ints = ref._cleared
    got_den, got_ints = got._cleared
    mono = next(iter(ref_ints))
    coeff = got_ints.get(mono)
    if coeff is None:
        return False
    # (coeff / got_den) / (ref_ints[mono] / ref_den), nonzero
    return three_form == model.scale(Fraction(coeff * ref_den, got_den * ref_ints[mono]))


def _sparse_linear_oneform(rng, projective):
    """A linear 1-form of 1 to 4 terms c*z_j*dz_i, often degenerate, or when
    projective of 1 to 4 terms c*(z_j*dz_i - z_i*dz_j), i != j, often with
    a zero Pfaffian."""
    form = TwistedForm.zero(1, 1)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(NVARS), 2) if projective else (
            rng.randrange(NVARS), rng.randrange(NVARS))
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        term = TwistedForm(1, 1, {(i,): HomogeneousPolynomial.variable(j).scale(c)})
        if projective:
            term = term - TwistedForm(1, 1, {(j,): HomogeneousPolynomial.variable(i).scale(c)})
        form = form + term
    return form


def test_contact_test_by_the_koszul_complex_matches_the_former_test():
    """is_contact_form, d(w) ^ w nonzero and killed by i_R, answers what the
    former proportionality test answered on 3103 seeded linear 1-forms:
    projective draws, dense forms with coefficients bounded by 1, 2 and 4,
    sparse ones, the zero form, the pencil form and the contact form.  A
    contact form is projective, so no dense draw is contact, but most have
    d(w) ^ w nonzero and not a multiple of i_R(vol), which the former test
    refused by its scaled comparison.  Both refuse 2- and 3-forms and
    1-forms with coefficients of degree 2."""
    rng = Random(47)
    other = [wedge(W1, W2), exterior_derivative(W2), _random_form(rng, 2, 1),
             _random_form(rng, 3, 1), random_projective_oneform(2, rng),
             W2.scale_by_polynomial(parse_polynomial("z0 + z3")),
             TwistedForm.zero(1, 2), _random_form(rng, 1, 2)]
    fixed = other + [TwistedForm.zero(1, 1), W1, W2]
    parts = [
        [random_projective_oneform(1, rng) for _ in range(1000)],
        [TwistedForm(1, 1, {(i,): random_polynomial(1, rng, bound=bound)
                            for i in range(NVARS)})
         for bound in (1, 2, 4) for _ in range(500)],
        [_sparse_linear_oneform(rng, projective=False) for _ in range(300)],
        [_sparse_linear_oneform(rng, projective=True) for _ in range(300)],
    ]
    inputs = fixed + [form for part in parts for form in part]
    answers = [is_contact_form(form) for form in inputs]
    assert answers == [_former_is_contact_form(form) for form in inputs]
    assert answers[:len(fixed)] == [False] * (len(other) + 2) + [True]
    outcomes = Counter(
        "contact" if answer else
        "zero" if wedge(exterior_derivative(form), form).is_zero() else "not a multiple"
        for form, answer in zip(inputs[len(other):], answers[len(other):]))
    assert len(outcomes) == 3 and min(outcomes.values()) >= 300, outcomes


def test_exterior_derivative_of_contact_form():
    d = exterior_derivative(W2)
    assert d == parse_form("2*dz0/\\dz1 + 2*dz2/\\dz3")


def test_vector_field_to_twoform_euler_field_gives_zero():
    euler = tuple(HomogeneousPolynomial.variable(i) for i in range(4))
    assert vector_field_to_twoform(euler).is_zero()


def test_vector_field_to_twoform_examples():
    v = (parse_polynomial("z1"), HomogeneousPolynomial.zero(1),
         HomogeneousPolynomial.zero(1), HomogeneousPolynomial.zero(1))
    form = vector_field_to_twoform(v)
    assert form.form_degree == 2 and form.coefficient_degree == 2
    assert is_projective(form)
    assert is_decomposable(form)
    constant = (HomogeneousPolynomial.zero(0),) * 3 + (parse_polynomial("1"),)
    lin = vector_field_to_twoform(constant)
    assert lin.coefficient_degree == 1
    assert all(3 not in idx for idx in lin.coefficients)
    assert is_projective(lin)


def test_vector_field_radial_shift_invariance():
    rng = Random(5)
    v = tuple(random_polynomial(2, rng, bound=3) for _ in range(4))
    f = random_polynomial(1, rng, bound=3)
    shifted = tuple(vi + f * HomogeneousPolynomial.variable(i)
                    for i, vi in enumerate(v))
    assert vector_field_to_twoform(v) == vector_field_to_twoform(shifted)


def test_random_projective_oneform_is_projective():
    """legendrian_sample relies on it and checks no draw."""
    rng = Random(6)
    for degree in (1, 2, 3, 4):
        form = random_projective_oneform(degree, rng)
        assert form.coefficient_degree == degree
        assert is_projective(form)


# ---------------------------------------------------------------------------
# the former loops, kept verbatim as oracles: each built one intermediate
# polynomial per product and added it in, dropping zero coefficients as it
# went


def _former_form_add(self: TwistedForm, other: TwistedForm) -> TwistedForm:
    if self.form_degree != other.form_degree:
        raise DegreeMismatchError("cannot add forms of different form degree")
    if self.coefficient_degree != other.coefficient_degree:
        raise DegreeMismatchError(
            "cannot add forms with coefficient degrees "
            f"{self.coefficient_degree} and {other.coefficient_degree}"
        )
    res = dict(self.coefficients)
    for idx, poly in other.coefficients.items():
        s = res.get(idx)
        total = poly if s is None else s + poly
        if total.is_zero():
            res.pop(idx, None)
        else:
            res[idx] = total
    return TwistedForm(self.form_degree, self.coefficient_degree, res)


def _former_wedge(a: TwistedForm, b: TwistedForm) -> TwistedForm:
    """Exterior product; coefficient degrees add."""
    q = a.form_degree + b.form_degree
    if q > NVARS:
        raise DegreeOverflowError(f"wedge would have form degree {q} > 4")
    coeff_degree = a.coefficient_degree + b.coefficient_degree
    res: dict = {}
    for idx_a, pa in a.coefficients.items():
        set_a = set(idx_a)
        for idx_b, pb in b.coefficients.items():
            if set_a & set(idx_b):
                continue
            merged, sign = _merge_sign(idx_a, idx_b)
            term = (pa * pb).scale(sign)
            s = res.get(merged)
            total = term if s is None else s + term
            if total.is_zero():
                res.pop(merged, None)
            else:
                res[merged] = total
    return TwistedForm(q, coeff_degree, res)


def _former_contract_with_field(form: TwistedForm, field) -> TwistedForm:
    """Interior product with a polynomial vector field (4-tuple, common degree)."""
    if form.form_degree < 1:
        raise WrongFormDegreeError("cannot contract a 0-form")
    field = tuple(field)
    degrees = {p.degree for p in field}
    if len(degrees) != 1:
        raise DegreeMismatchError("vector field components must share one degree")
    field_degree = degrees.pop()
    res: dict = {}
    for idx, poly in form.coefficients.items():
        for pos, i in enumerate(idx):
            if field[i].is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = (field[i] * poly).scale((-1) ** pos)
            s = res.get(rest)
            total = term if s is None else s + term
            if total.is_zero():
                res.pop(rest, None)
            else:
                res[rest] = total
    return TwistedForm(form.form_degree - 1, form.coefficient_degree + field_degree, res)


def _former_exterior_derivative(form: TwistedForm) -> TwistedForm:
    """Exterior derivative of a 1-form (all the contact check needs)."""
    if form.form_degree != 1:
        raise WrongFormDegreeError("exterior derivative implemented for 1-forms only")
    result = TwistedForm.zero(2, max(form.coefficient_degree - 1, 0))
    for (i,), poly in form.coefficients.items():
        for j in range(NVARS):
            dp = poly.partial(j)
            if dp.is_zero():
                continue
            term = _former_wedge(
                TwistedForm(1, dp.degree, {(j,): dp}),
                TwistedForm.basis_covector(i),
            )
            result = _former_form_add(result, term)
    return result


def _sparse_form(rng, q, coeff_degree):
    """A q-form with few small coefficients, so that products often cancel."""
    coefficients = {}
    for idx in combinations(range(NVARS), q):
        if rng.random() < 0.6:
            terms = {m: rng.randint(-2, 2) for m in exponent_tuples(packed_monomials(coeff_degree))
                     if rng.random() < 0.4}
            coefficients[idx] = HomogeneousPolynomial(coeff_degree, terms)
    return TwistedForm(q, coeff_degree, coefficients)


def _same(new, old):
    assert new == old and str(new) == str(old)
    assert (new.form_degree, new.coefficient_degree) == (old.form_degree,
                                                         old.coefficient_degree)
    # no coefficient stored is zero, nor any coefficient of one
    assert all(p and all(p.terms.values()) for p in new.coefficients.values())


def test_wedge_and_addition_match_the_former_loops():
    rng = Random(21)
    zeros = 0
    for _ in range(300):
        p = rng.randint(0, 4)
        q = rng.randint(0, 4 - p)
        a = _sparse_form(rng, p, rng.randint(0, 3))
        b = _sparse_form(rng, q, rng.randint(0, 3))
        _same(wedge(a, b), _former_wedge(a, b))
        if 2 * p <= 4:
            _same(wedge(a, a), _former_wedge(a, a))
            zeros += wedge(a, a).is_zero()
        c = _sparse_form(rng, p, a.coefficient_degree)
        _same(a + c, _former_form_add(a, c))
        _same(a + (-a), _former_form_add(a, -a))
        assert (a + (-a)).is_zero()
    assert zeros > 50


def test_contraction_matches_the_former_loop():
    rng = Random(22)
    for _ in range(200):
        form = _sparse_form(rng, rng.randint(1, 4), rng.randint(0, 3))
        degree = rng.randint(0, 2)
        field = [_sparse_form(rng, 0, degree).coefficient(()) for _ in range(NVARS)]
        _same(contract_with_field(form, field), _former_contract_with_field(form, field))
        # contracting twice with one field cancels to zero
        once = contract_with_field(form, field)
        if once.form_degree:
            _same(contract_with_field(once, field), _former_contract_with_field(once, field))
            assert contract_with_field(once, field).is_zero()


def test_exterior_derivative_matches_the_former_wedges():
    rng = Random(23)
    for _ in range(200):
        form = _sparse_form(rng, 1, rng.randint(0, 4))
        _same(exterior_derivative(form), _former_exterior_derivative(form))
    for form in (W1, W2, random_projective_oneform(3, rng)):
        _same(exterior_derivative(form), _former_exterior_derivative(form))
