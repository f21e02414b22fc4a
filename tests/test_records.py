"""The plain records keep the constructor, defaults, repr, == and, for the
frozen ones, the hash and read-only fields they had as dataclasses; the
polynomials, forms and Hilbert polynomials built on FrozenRecord copy,
pickle and refuse assignment like them."""

import copy
import pickle
from random import Random

import pytest

from folcurves.classify import ClassificationReport, DiscrepancyFlag, FoliationInvariants
from folcurves.forms import FoliationPresentation, TwistedForm, legendrian_sample, parse_form, wedge
from folcurves.groebner import GradedIdeal, HilbertPolynomial, curve_invariants
from folcurves.monad import MonadSpec
from folcurves.polyring import HomogeneousPolynomial, parse_polynomial
from folcurves import resolution
from folcurves.resolution import (FreeResolution, RaoProfile, minimal_free_resolution,
                                  rao_module_dimensions)
from folcurves.sheafcoh import ChernTriple, CohomologyTable, SheafSymbol
from folcurves.verification import CriterionResult

# Each record: its required fields' values, in order, its fields with their
# defaults, whether it is frozen, and the repr the dataclass gave the record
# of those values.  A default of list or dict is a fresh one per record.  A
# presentation is frozen on its fields but the ideal, which is derived from
# its form: those are the fields it compares and hashes on.
RECORDS = {
    "FreeResolution": (FreeResolution, ([[0], [-2, -2], [-4]], [], 8), {}, False,
                       "FreeResolution(twists=[[0], [-2, -2], [-4]], differentials=[], bound=8)"),
    "RaoProfile": (RaoProfile, ({1: 2}, 2, (-2, 7)), {}, False,
                   "RaoProfile(profile={1: 2}, total=2, window=(-2, 7))"),
    "FoliationPresentation": (
        FoliationPresentation, ("z0*dz1 - z1*dz0", 0, "ideal"), {"conormal_twists": None},
        ("two_form", "degree", "conormal_twists"),
        "FoliationPresentation(two_form='z0*dz1 - z1*dz0', degree=0, ideal='ideal', "
        "conormal_twists=None)"),
    "FoliationInvariants": (
        FoliationInvariants, (2, 6, -5, 5, 2, 0, True), {}, True,
        "FoliationInvariants(d=2, c2N=6, c1N=-5, degC=5, paC=2, c3=0, locally_free=True)"),
    "DiscrepancyFlag": (DiscrepancyFlag, ("claim", 3, 4, "table 1"), {}, False,
                        "DiscrepancyFlag(claim='claim', computed=3, stated=4, location='table 1')"),
    "ClassificationReport": (
        ClassificationReport, ({"type": "split"}, 5, 2),
        {"components": None, "dim_moduli": None, "h0_OC": None, "charge": None, "flags": list},
        False,
        "ClassificationReport(verdict={'type': 'split'}, degC=5, paC=2, components=None, "
        "dim_moduli=None, h0_OC=None, charge=None, flags=[])"),
    "ChernTriple": (ChernTriple, (-1, 2), {"c3": 0}, True, "ChernTriple(c1=-1, c2=2, c3=0)"),
    "SheafSymbol": (SheafSymbol, (2, ChernTriple(-1, 2)), {"kind": "generic", "data": ()}, True,
                    "SheafSymbol(rank=2, chern=ChernTriple(c1=-1, c2=2, c3=0), kind='generic', "
                    "data=())"),
    "CohomologyTable": (CohomologyTable, (), {"rows": dict, "provenance": dict}, False,
                        "CohomologyTable(rows={}, provenance={})"),
    "MonadSpec": (MonadSpec, ((-1,), (-1, 1), (1,)), {"c_list": None, "b_list": None}, True,
                  "MonadSpec(left=(-1,), middle=(-1, 1), right=(1,), c_list=None, b_list=None)"),
    "CriterionResult": (CriterionResult, ("syzygy", "title", True),
                        {"details": list, "flags": list}, False,
                        "CriterionResult(cid='syzygy', title='title', ok=True, details=[], "
                        "flags=[])"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_keep_their_dataclass_behaviour(name):
    cls, required, defaults, frozen, recorded = RECORDS[name]
    fields = cls.__slots__
    assert len(fields) == len(required) + len(defaults)
    assert list(fields[len(required):]) == list(defaults)
    record = cls(*required)
    assert repr(record) == recorded
    assert cls(**dict(zip(fields, required))) == record
    for field, default in defaults.items():
        value = getattr(record, field)
        if isinstance(default, type):
            assert type(value) is default and not value
            assert getattr(cls(*required), field) is not value  # a fresh one per record
        else:
            assert value == default
    # every field by position, then by keyword; one changed field breaks ==
    values = required + tuple(getattr(record, field) for field in defaults)
    assert cls(*values) == record == cls(**dict(zip(fields, values)))
    other = cls(*values[:-1], "changed")
    assert other != record and record != other
    assert (record == values) is False and record != values
    for bad in (lambda: cls(*values, None), lambda: cls(*values[:-1], **{fields[-1]: 1, "x": 2}),
                lambda: cls(*values, **{fields[0]: values[0]})):
        with pytest.raises(TypeError):
            bad()
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    if frozen:
        keyed = values if frozen is True else tuple(
            value for field, value in zip(fields, values) if field in frozen)
        assert hash(record) == hash(cls(*values)) == hash(keyed)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
            setattr(record, fields[0], 1)
        with pytest.raises(AttributeError):
            delattr(record, fields[-1])
        assert repr(record) == recorded
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, fields[-1], "changed")
        assert record == other
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # no __dict__


# The values the package hands out: a polynomial with rational
# coefficients, the 2-form of the pencil with the contact form, the Hilbert
# polynomial of the twisted cubic, and a legendrian sample, each with its
# fields.
ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def _values():
    polynomial = parse_polynomial("1/2*z0^2 - 3/7*z1*z2 + z3^2")
    two_form = wedge(parse_form("z0*dz1 - z1*dz0"),
                     parse_form("z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"))
    hilbert = GradedIdeal.from_expressions(
        ["z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2"]).hilbert_polynomial()
    return {HomogeneousPolynomial: (polynomial, ("degree", "_cleared")),
            TwistedForm: (two_form, ("form_degree", "coefficient_degree", "coefficients")),
            HilbertPolynomial: (hilbert, ("coeffs",))}


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_polynomials_forms_and_hilbert_polynomials_copy_and_pickle(trip):
    for cls, (value, _) in _values().items():
        again = ROUND_TRIPS[trip](value)
        assert type(again) is cls and again == value and hash(again) == hash(value)
        assert str(again) == str(value) and repr(again) == repr(value)
    sample = legendrian_sample(3, Random(0))
    again = ROUND_TRIPS[trip](sample)
    assert again == sample and hash(again) == hash(sample) and again.two_form.coefficients
    assert again.ideal.equals(sample.ideal)


def test_presentations_compare_on_form_degree_and_twists_not_the_ideal_object():
    sample = legendrian_sample(3, Random(0))
    other = FoliationPresentation(sample.two_form, 3, GradedIdeal(sample.ideal.generators),
                                  sample.conormal_twists)
    assert other == sample and hash(other) == hash(sample)
    assert FoliationPresentation(sample.two_form, 3, sample.ideal) != sample


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_a_certified_wedge_ideal_copies_with_its_certificate(trip, monkeypatch):
    """The copy of a legendrian sample keeps the conormal certificate: its
    ideal answers its Hilbert data and Rao profile with no basis and no
    resolution."""
    sample = legendrian_sample(3, Random(0))
    again = ROUND_TRIPS[trip](sample)
    assert again == sample and hash(again) == hash(sample)

    def refuse(*args):
        raise AssertionError("the certified ideal needs no basis and no resolution")

    monkeypatch.setattr(GradedIdeal, "_basis_elements", refuse)
    monkeypatch.setattr(resolution, "minimal_free_resolution", refuse)
    assert again.ideal.hilbert_numerator() == sample.ideal.hilbert_numerator()
    assert curve_invariants(again.ideal) == (10, 11)
    assert rao_module_dimensions(again.ideal).to_json() == {"profile": {"2": 1}, "total": 1}
    assert again.ideal._elements is None and again.ideal._resolution is None


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_an_ideal_copies_and_pickles_with_its_deferred_resolution_layer(trip):
    """After a Rao walk the sample's resolution still defers layer 2's
    columns; the ideal comes back with the same resolution and Rao profile,
    and equals the original.  Copying builds no deferred column, and a deep
    copy or a pickle builds its own, equal to the original's, leaving the
    original's unbuilt.  The sample's generators are taken afresh, so that
    the exact route, not the conormal certificate, answers."""
    ideal = GradedIdeal(legendrian_sample(3, Random(0)).ideal.generators)
    profile = rao_module_dimensions(ideal)
    original = ideal._resolution.differentials
    assert original.deferred
    again = ROUND_TRIPS[trip](ideal)
    assert original.deferred
    assert again.equals(ideal)
    assert rao_module_dimensions(again) == profile
    if trip != "copy":  # a shallow copy shares the resolution itself
        copied = again._resolution.differentials
        assert copied.deferred and copied is not original
        built = copied[1]
        assert not copied.deferred and original.deferred
        assert built == original[1] and not original.deferred
    assert again._resolution == ideal._resolution
    assert minimal_free_resolution(again).composition_ok()


def test_polynomials_forms_and_hilbert_polynomials_refuse_assignment():
    for value, fields in _values().values():
        for name in fields:
            kept = getattr(value, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, kept)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1  # no __dict__
    assert HilbertPolynomial.__slots__ == ("coeffs",)
    # the cached Hilbert polynomial of two skew lines cannot be changed
    # under the curve invariants read from it
    skew = GradedIdeal.from_expressions(["z0*z2", "z0*z3", "z1*z2", "z1*z3"])
    with pytest.raises(AttributeError):
        skew.hilbert_polynomial().coeffs = (5, 3)
    assert curve_invariants(skew) == (2, -1)
    assert str(skew.hilbert_polynomial()) == "2*t + 2"


@pytest.mark.parametrize("route", ["lead-ideal", "section", "conormal"])
def test_a_hilbert_numerator_handed_out_cannot_change_the_ideal(route):
    """hilbert_numerator() returns a fresh dict on each route, so a change
    to it leaves the kept numerator, and the Hilbert function, polynomial
    and curve invariants read from it, as they were."""
    if route == "lead-ideal":  # two skew lines: four forms, past the section
        ideal, curve = GradedIdeal.from_expressions(["z0*z2", "z0*z3", "z1*z2", "z1*z3"]), (2, -1)
    elif route == "section":  # two quadrics, certified on the section
        ideal = GradedIdeal.from_expressions(["z0*z1 - z2*z3", "z0^2 + z1^2 - z2^2 + 3*z3^2"])
        curve = (4, 1)
    else:
        ideal, curve = legendrian_sample(3, Random(0)).ideal, (10, 11)
    numerator = ideal.hilbert_numerator()
    kept, values = dict(numerator), [ideal.hilbert_function(k) for k in range(8)]
    numerator[5] = 1
    numerator[0] = 7
    assert ideal.hilbert_numerator() == kept and ideal.hilbert_numerator() is not numerator
    assert [ideal.hilbert_function(k) for k in range(8)] == values
    assert ideal.hilbert_polynomial().degree() == 1 and curve_invariants(ideal) == curve
    assert (ideal._elements is None) == (route != "lead-ideal")

