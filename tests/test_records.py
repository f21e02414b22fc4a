"""The plain records keep the constructor, defaults, repr, == and, for the
frozen ones, the hash and read-only fields they had as dataclasses."""

import copy
import pickle

import pytest

from folcurves.classify import ClassificationReport, DiscrepancyFlag, FoliationInvariants
from folcurves.forms import FoliationPresentation
from folcurves.monad import MonadSpec
from folcurves.resolution import FreeResolution, RaoProfile
from folcurves.sheafcoh import ChernTriple, CohomologyTable, SheafSymbol
from folcurves.verification import CriterionResult

# Each record: its required fields' values, in order, its fields with their
# defaults, whether it is frozen, and the repr the dataclass gave the record
# of those values.  A default of list or dict is a fresh one per record.
RECORDS = {
    "FreeResolution": (FreeResolution, ([[0], [-2, -2], [-4]], [], 8), {}, False,
                       "FreeResolution(twists=[[0], [-2, -2], [-4]], differentials=[], bound=8)"),
    "RaoProfile": (RaoProfile, ({1: 2}, 2, (-2, 7)), {}, False,
                   "RaoProfile(profile={1: 2}, total=2, window=(-2, 7))"),
    "FoliationPresentation": (
        FoliationPresentation, ("z0*dz1 - z1*dz0", 0, "ideal"), {"conormal_twists": None}, True,
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
        assert hash(record) == hash(cls(*values)) == hash(values)
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
