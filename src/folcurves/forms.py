"""Projective twisted differential forms on P^3.

A q-form is stored as a map from strictly increasing index tuples
(dz_{i1} ^ ... ^ dz_{iq}) to homogeneous polynomial coefficients of one
common degree.  The zero form keeps both degree tags.  Wedge and interior
products sum the signed coefficient products of each result index with one
call of polyring.sum_of_products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

from .errors import (
    DegreeMismatchError,
    DegreeOverflowError,
    NotContactError,
    NotHomogeneousError,
    NotProjectiveError,
    ProportionalInputError,
    ResourceLimitError,
    WrongFormDegreeError,
    ZeroFormError,
)
from .groebner import GradedIdeal, curve_invariants, hilbert_polynomial
from .polyring import (
    NVARS,
    HomogeneousPolynomial,
    _from_integers,
    _signed_sum,
    packed_monomials,
    sum_of_products,
)
from .records import FrozenRecord


def _merge_sign(left: tuple, right: tuple):
    """Sorted union of disjoint index tuples with the interleaving sign."""
    inversions = sum(1 for i in left for j in right if i > j)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


class TwistedForm(FrozenRecord):
    """Differential q-form with homogeneous polynomial coefficients."""

    __slots__ = ("form_degree", "coefficient_degree", "coefficients")

    def __init__(self, form_degree: int, coefficient_degree: int, coefficients=None):
        if not 0 <= form_degree <= NVARS:
            raise WrongFormDegreeError(f"form degree {form_degree} outside 0..4")
        clean = {}
        if coefficients:
            for idx, poly in coefficients.items():
                idx = tuple(idx)
                if len(idx) != form_degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad covector index tuple {idx}")
                if poly.is_zero():
                    continue
                if poly.degree != coefficient_degree:
                    raise NotHomogeneousError(
                        f"coefficient of degree {poly.degree}, expected {coefficient_degree}"
                    )
                clean[idx] = poly
        super().__init__(form_degree, coefficient_degree, clean)

    @classmethod
    def zero(cls, form_degree: int, coefficient_degree: int) -> "TwistedForm":
        return cls(form_degree, coefficient_degree, {})

    @classmethod
    def basis_covector(cls, i: int) -> "TwistedForm":
        return cls(1, 0, {(i,): HomogeneousPolynomial.constant(1)})

    @classmethod
    def from_polynomial(cls, poly: HomogeneousPolynomial) -> "TwistedForm":
        return cls(0, poly.degree, {(): poly})

    @classmethod
    def volume(cls) -> "TwistedForm":
        return cls(4, 0, {(0, 1, 2, 3): HomogeneousPolynomial.constant(1)})

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, idx: tuple) -> HomogeneousPolynomial:
        return self.coefficients.get(
            tuple(idx), HomogeneousPolynomial.zero(self.coefficient_degree)
        )

    def __add__(self, other: "TwistedForm") -> "TwistedForm":
        if self.form_degree != other.form_degree:
            raise DegreeMismatchError("cannot add forms of different form degree")
        if self.coefficient_degree != other.coefficient_degree:
            raise DegreeMismatchError(
                "cannot add forms with coefficient degrees "
                f"{self.coefficient_degree} and {other.coefficient_degree}"
            )
        res = dict(self.coefficients)
        for idx, poly in other.coefficients.items():
            res[idx] = res[idx] + poly if idx in res else poly
        return TwistedForm(self.form_degree, self.coefficient_degree, res)

    def __sub__(self, other: "TwistedForm") -> "TwistedForm":
        return self + (-other)

    def __neg__(self) -> "TwistedForm":
        return TwistedForm(
            self.form_degree,
            self.coefficient_degree,
            {idx: -p for idx, p in self.coefficients.items()},
        )

    def scale_by_polynomial(self, poly: HomogeneousPolynomial) -> "TwistedForm":
        return TwistedForm(
            self.form_degree,
            self.coefficient_degree + poly.degree,
            {idx: poly * p for idx, p in self.coefficients.items()},
        )

    def scale(self, c) -> "TwistedForm":
        if type(c) is not int:
            c = Fraction(c)
        return TwistedForm(
            self.form_degree,
            self.coefficient_degree,
            {idx: p.scale(c) for idx, p in self.coefficients.items()},
        )

    def __hash__(self):  # the dict of coefficients hashed as a frozenset of its items
        return hash(
            (self.form_degree, self.coefficient_degree,
             frozenset(self.coefficients.items()))
        )

    def __str__(self) -> str:
        if self.form_degree == 0:
            poly = self.coefficients.get((), HomogeneousPolynomial.zero(self.coefficient_degree))
            return str(poly)
        parts = []
        for idx in sorted(self.coefficients, reverse=True):
            poly = self.coefficients[idx]
            covector = "/\\".join(f"dz{i}" for i in idx)
            if len(poly._cleared[1]) == 1:
                text = str(poly)
                if text.startswith("-"):
                    sign, body = "-", text[1:]
                else:
                    sign, body = "+", text
                body = covector if body == "1" else f"{body}*{covector}"
            else:
                sign, body = "+", f"({poly})*{covector}"
            parts.append((sign, body))
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"TwistedForm({self})"


def wedge(a: TwistedForm, b: TwistedForm) -> TwistedForm:
    """Exterior product; coefficient degrees add."""
    q = a.form_degree + b.form_degree
    if q > NVARS:
        raise DegreeOverflowError(f"wedge would have form degree {q} > 4")
    groups: dict = {}
    for idx_a, pa in a.coefficients.items():
        set_a = set(idx_a)
        for idx_b, pb in b.coefficients.items():
            if set_a & set(idx_b):
                continue
            merged, sign = _merge_sign(idx_a, idx_b)
            groups.setdefault(merged, []).append((sign, pa, pb))
    return TwistedForm(q, a.coefficient_degree + b.coefficient_degree,
                       {idx: sum_of_products(pairs) for idx, pairs in groups.items()})


def contract_with_field(form: TwistedForm, field) -> TwistedForm:
    """Interior product with a polynomial vector field (4-tuple, common degree)."""
    if form.form_degree < 1:
        raise WrongFormDegreeError("cannot contract a 0-form")
    field = tuple(field)
    degrees = {p.degree for p in field}
    if len(degrees) != 1:
        raise DegreeMismatchError("vector field components must share one degree")
    field_degree = degrees.pop()
    groups: dict = {}
    for idx, poly in form.coefficients.items():
        for pos, i in enumerate(idx):
            if field[i]:
                rest = idx[:pos] + idx[pos + 1:]
                groups.setdefault(rest, []).append(((-1) ** pos, field[i], poly))
    return TwistedForm(form.form_degree - 1, form.coefficient_degree + field_degree,
                       {idx: sum_of_products(pairs) for idx, pairs in groups.items()})


def euler_field():
    """The radial vector field (z0, z1, z2, z3)."""
    return tuple(HomogeneousPolynomial.variable(i) for i in range(NVARS))


def radial_contraction(form: TwistedForm) -> TwistedForm:
    """Contraction with the Euler field; output degree drops by one."""
    return contract_with_field(form, euler_field())


def is_projective(form: TwistedForm) -> bool:
    """True iff the form descends to P^3 (its radial contraction vanishes)."""
    if form.form_degree == 0:
        return True
    return radial_contraction(form).is_zero()


def is_decomposable(form: TwistedForm) -> bool:
    """Pluecker test for 2-forms in four variables: decomposable iff w^w = 0."""
    if form.form_degree != 2:
        raise WrongFormDegreeError("decomposability test applies to 2-forms")
    return wedge(form, form).is_zero()


def exterior_derivative(form: TwistedForm) -> TwistedForm:
    """Exterior derivative of a 1-form (all the contact check needs):
    d(sum p_i dz_i) = sum over i < j of (d_i p_j - d_j p_i) dz_i ^ dz_j."""
    if form.form_degree != 1:
        raise WrongFormDegreeError("exterior derivative implemented for 1-forms only")
    p = [form.coefficient((i,)) for i in range(NVARS)]
    return TwistedForm(
        2,
        max(form.coefficient_degree - 1, 0),
        {(i, j): p[j].partial(i) - p[i].partial(j)
         for i, j in combinations(range(NVARS), 2)},
    )


def singular_ideal(form: TwistedForm) -> GradedIdeal:
    """Ideal generated by the coefficients of a nonzero 2-form."""
    if form.form_degree != 2:
        raise WrongFormDegreeError("singular ideal is defined for 2-forms")
    if form.is_zero():
        raise ZeroFormError("zero form has no singular ideal")
    gens = [form.coefficients[idx] for idx in sorted(form.coefficients)]
    return GradedIdeal(gens)


def vector_field_to_twoform(field) -> TwistedForm:
    """Double contraction i_v i_R of the volume form.

    Adding a multiple of the radial field to v does not change the output;
    the result is always projective and decomposable.
    """
    return contract_with_field(radial_contraction(TwistedForm.volume()), field)


def _wedge_ideal(a: TwistedForm, b: TwistedForm, two_form: TwistedForm) -> GradedIdeal:
    """singular_ideal(two_form), two_form = a ^ b for projective 1-forms a and
    b, with their coefficient degrees recorded for folcurves.section."""
    ideal = singular_ideal(two_form)
    ideal._conormal = a.coefficient_degree, b.coefficient_degree
    return ideal


class FoliationPresentation(FrozenRecord):
    """A foliation by curves presented by a decomposable projective 2-form
    (a TwistedForm) of degree degree, with its singular GradedIdeal ideal
    and, when known, the tuple of its conormal twists.  Presentations
    compare and hash on the form, degree and twists: the ideal is derived
    from the form, and GradedIdeal has no ==."""

    __slots__ = ("two_form", "degree", "ideal", "conormal_twists")
    _defaults = {"conormal_twists": None}

    def _key(self) -> tuple:
        return self.two_form, self.degree, self.conormal_twists

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def singular_curve_invariants(self):
        return curve_invariants(self.ideal)


def standard_contact_form() -> TwistedForm:
    """z0 dz1 - z1 dz0 + z2 dz3 - z3 dz2."""
    z = [HomogeneousPolynomial.variable(i) for i in range(NVARS)]
    return TwistedForm(1, 1, {(0,): -z[1], (1,): z[0], (2,): -z[3], (3,): z[2]})


def pencil_form() -> TwistedForm:
    """z0 dz1 - z1 dz0, the 1-form of a pencil of planes."""
    z = [HomogeneousPolynomial.variable(i) for i in range(NVARS)]
    return TwistedForm(1, 1, {(0,): -z[1], (1,): z[0]})


def is_contact_form(form: TwistedForm) -> bool:
    """True iff form is a 1-form w with linear coefficients for which
    d(w) ^ w is nonzero and killed by the radial contraction i_R.

    The Koszul complex of z0..z3 is exact, so the 3-forms with linear
    coefficients that i_R kills are exactly the constant multiples of
    i_R(vol); w is contact, nowhere degenerate, iff d(w) ^ w is a nonzero
    one.  For projective w the second condition always holds: there
    i_R d(w) = 2 w by Cartan's formula, so i_R(d(w) ^ w) = 2 w ^ w = 0.
    """
    if form.form_degree != 1 or form.coefficient_degree != 1:
        return False
    three_form = wedge(exterior_derivative(form), form)
    return not three_form.is_zero() and radial_contraction(three_form).is_zero()


def _check_projective_one_form(name: str, form: TwistedForm) -> None:
    if form.form_degree != 1:
        raise WrongFormDegreeError(f"{name} must be a 1-form")
    if not is_projective(form):
        raise NotProjectiveError(f"{name} does not descend to P^3")


def legendrian_foliation(contact: TwistedForm, omega: TwistedForm) -> FoliationPresentation:
    """Foliation cut out by contact ^ omega; its degree equals the
    coefficient degree of omega."""
    _check_projective_one_form("contact form", contact)
    _check_projective_one_form("second form", omega)
    if not is_contact_form(contact):
        raise NotContactError("first argument is not a contact form")
    return _legendrian_presentation(contact, omega)


def _legendrian_presentation(contact: TwistedForm, omega: TwistedForm) -> FoliationPresentation:
    """legendrian_foliation for a contact form and a projective 1-form
    that have passed its checks."""
    two_form = wedge(contact, omega)
    if two_form.is_zero():
        raise ProportionalInputError("second form is a multiple of the contact form")
    degree = omega.coefficient_degree
    ideal = _wedge_ideal(contact, omega, two_form)
    return FoliationPresentation(two_form=two_form, degree=degree, ideal=ideal,
                                 conormal_twists=(-2, -1 - degree))


def random_polynomial(degree: int, rng: Random, bound: int = 9) -> HomogeneousPolynomial:
    terms = {}
    for m in packed_monomials(degree):
        c = rng.randint(-bound, bound)
        if c:
            terms[m] = c
    return _from_integers(degree, 1, terms)


def random_projective_oneform(coefficient_degree: int, rng: Random) -> TwistedForm:
    """Random section sum of g_ij (z_i dz_j - z_j dz_i), integer coefficients in [-9, 9]."""
    if coefficient_degree < 1:
        raise DegreeMismatchError("projective 1-forms need coefficient degree >= 1")
    z = [HomogeneousPolynomial.variable(i) for i in range(NVARS)]
    result = TwistedForm.zero(1, coefficient_degree)
    for i, j in combinations(range(NVARS), 2):
        g = random_polynomial(coefficient_degree - 1, rng)
        if g.is_zero():
            continue
        pencil = TwistedForm(1, 1, {(i,): -z[j], (j,): z[i]})
        result = result + pencil.scale_by_polynomial(g)
    return result


def legendrian_sample(degree: int, rng: Random, max_redraws: int = 20) -> FoliationPresentation:
    """Draw a legendrian foliation of the given degree whose singular scheme
    is a curve, redrawing on degenerate samples (at most max_redraws).

    The forms skip legendrian_foliation's checks, which they always pass:
    the standard contact form is contact and projective, and each draw of
    random_projective_oneform is a sum of multiples of z_i dz_j - z_j dz_i,
    each of which i_R kills."""
    contact = standard_contact_form()
    for _ in range(max_redraws):
        omega = random_projective_oneform(degree, rng)
        try:
            presentation = _legendrian_presentation(contact, omega)
        except ProportionalInputError:
            continue
        if hilbert_polynomial(presentation.ideal).degree() == 1:
            return presentation
    raise ResourceLimitError(f"legendrian_sample, degree {degree}: "
                             f"no one-dimensional sample found in {max_redraws} draws")


def parse_form(text: str) -> TwistedForm:
    """Parse an expression possibly containing dz0..dz3 into a twisted form."""
    from .parsing import parse_value

    value = parse_value(text)
    if isinstance(value, HomogeneousPolynomial):
        return TwistedForm.from_polynomial(value)
    return value
