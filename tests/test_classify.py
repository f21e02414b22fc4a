"""Invariant formulas and the low-degree classification."""

from random import Random

import pytest

from folcurves.classify import (
    _SPLIT_ROWS,
    ClassificationReport,
    ci_foliation_invariants,
    classify_low_degree,
    connected_components,
    generic_invariants,
    invariants_from_c2,
    isolated_count,
    legendrian_moduli_dim,
    nc_curve_invariants,
    nc_moduli_dim,
    rao_bounds,
    sections_of_singular_scheme,
    split_criterion,
)
from folcurves.errors import (
    DegreeTooSmallError,
    FolcurvesError,
    ImpossibleError,
    InconsistentTripleError,
    NonIntegralGenusError,
    OutOfBoundsError,
)
from folcurves.forms import legendrian_sample
from folcurves.groebner import curve_invariants
from folcurves.resolution import rao_module_dimensions
from folcurves.sheafcoh import _instanton_h0_e1, instanton_h1


def test_invariants_examples():
    assert (invariants_from_c2(3, 10).degC, invariants_from_c2(3, 10).paC) == (8, 5)
    assert (invariants_from_c2(2, 6).degC, invariants_from_c2(2, 6).paC) == (5, 1)
    assert (invariants_from_c2(1, 4).degC, invariants_from_c2(1, 4).paC) == (2, -1)


def test_invariants_bounds_and_parity():
    with pytest.raises(OutOfBoundsError):
        invariants_from_c2(2, 3)
    with pytest.raises(OutOfBoundsError):
        invariants_from_c2(2, 10, locally_free=True)
    invariants_from_c2(2, 10, locally_free=False)
    with pytest.raises(NonIntegralGenusError):
        invariants_from_c2(2, 5)


def test_identity_closure_sweep():
    cases = 0
    for d in range(1, 7):
        for c2 in range(d + 2, d * d + 2 * d + 2):
            if (3 * (d - 1) * c2) % 2 != 0:
                continue
            assert invariants_from_c2(d, c2).identity_residual() == 0
            cases += 1
    assert cases >= 50


def test_monotone_in_c2():
    for d in (1, 2, 3, 4):
        degrees = []
        genera = []
        for c2 in range(d + 2, d * d + 2 * d + 2):
            if (3 * (d - 1) * c2) % 2 != 0:
                continue
            inv = invariants_from_c2(d, c2)
            degrees.append(inv.degC)
            genera.append(inv.paC)
        assert all(a > b for a, b in zip(degrees, degrees[1:]))
        if d >= 2:
            assert all(a > b for a, b in zip(genera, genera[1:]))


def test_generic_invariants():
    assert generic_invariants(0) == (3, 1)
    assert generic_invariants(1) == (6, 4)
    assert generic_invariants(2) == (11, 15)


def test_isolated_count():
    assert isolated_count(2, 5, 0) == 0
    assert isolated_count(1, 2, 2) == 0
    for d in (1, 2, 3):
        assert isolated_count(d, 0, 0) == d ** 3 + d ** 2 + d + 1
    with pytest.raises(InconsistentTripleError):
        isolated_count(2, 7, 3)


def test_classification_table_degree3():
    expected = {
        10: ((8, 5), 1, 1, 1),
        11: ((7, 2), 2, 4, 1),
        12: ((6, -1), 3, [8, 9], [2, 3]),
        13: ((5, -4), 4, 14, 5),
    }
    for c2, (curve, charge, dim_m, h0) in expected.items():
        rep = classify_low_degree(3, c2, reduced_singular_scheme=True)
        assert rep.verdict["type"] == "instanton"
        assert (rep.degC, rep.paC) == curve
        assert rep.charge == charge
        assert rep.dim_moduli == dim_m
        assert rep.h0_OC == h0


def test_classification_low_degrees():
    rep = classify_low_degree(1, 4)
    assert rep.verdict == {"type": "split", "twists": [-2, -2]}
    assert (rep.degC, rep.paC) == (2, -1)
    rep = classify_low_degree(2, 6)
    assert rep.verdict == {"type": "split", "twists": [-2, -3]}
    assert (rep.degC, rep.paC, rep.components) == (5, 1, 1)


def test_classification_split_degree3_with_flags():
    rep8 = classify_low_degree(3, 8)
    assert rep8.verdict["twists"] == [-2, -4]
    assert (rep8.degC, rep8.paC) == (10, 11)
    assert len(rep8.flags) == 1 and rep8.flags[0].stated == 5
    rep9 = classify_low_degree(3, 9)
    assert rep9.verdict["twists"] == [-3, -3]
    assert (rep9.degC, rep9.paC) == (9, 8)
    assert len(rep9.flags) == 1 and rep9.flags[0].stated == 3


def test_classification_impossible_cases():
    with pytest.raises(ImpossibleError):
        classify_low_degree(2, 8)
    with pytest.raises(ImpossibleError):
        classify_low_degree(2, 4)
    with pytest.raises(ImpossibleError):
        classify_low_degree(1, 3)
    for c2 in (15, 16):
        with pytest.raises(ImpossibleError):
            classify_low_degree(3, c2)
        with pytest.raises(ImpossibleError):
            classify_low_degree(3, c2, reduced_singular_scheme=True)
    with pytest.raises(ImpossibleError):
        classify_low_degree(3, 14, reduced_singular_scheme=True)
    rep = classify_low_degree(3, 14)  # without reducedness only constraints attach
    assert rep.charge == 5
    with pytest.raises(OutOfBoundsError):
        classify_low_degree(3, 17)
    with pytest.raises(OutOfBoundsError):
        classify_low_degree(4, 10)


def test_connected_components():
    assert connected_components(0, 2) == 1
    assert connected_components(3, 3) == 4
    assert connected_components(1, 3) == 2
    assert connected_components(4, 3) == 5
    with pytest.raises(DegreeTooSmallError):
        connected_components(0, 1)


def test_sections_of_singular_scheme():
    assert sections_of_singular_scheme(1, 5) == 1
    assert sections_of_singular_scheme(4, 0) == 5
    assert sections_of_singular_scheme(3, 0) == 2


def test_legendrian_moduli():
    assert legendrian_moduli_dim(1) == 8
    assert legendrian_moduli_dim(2) == 20
    assert legendrian_moduli_dim(3) == 39


def test_nc_moduli_off_by_one():
    assert nc_moduli_dim(1) == (34, 33, True)
    assert nc_moduli_dim(2) == (81, 80, True)
    for k in range(1, 11):
        stated, derived, flagged = nc_moduli_dim(k)
        assert stated - derived == 1 and flagged


def test_nc_curve_invariants():
    assert nc_curve_invariants(1) == (8, 5)
    assert nc_curve_invariants(2) == (21, 49)
    assert nc_curve_invariants(3) == (40, 161)
    for k in range(1, 7):
        deg, genus = nc_curve_invariants(k)
        inv = invariants_from_c2(2 * k + 1, 1 + (k + 2) ** 2)
        assert (deg, genus) == (inv.degC, inv.paC)


def test_ci_invariants():
    assert ci_foliation_invariants(0, 0)[:2] == (2, -1)
    assert ci_foliation_invariants(0, 1)[:2] == (5, 1)
    deg, genus, flags = ci_foliation_invariants(1, 1)
    assert (deg, genus) == (9, 8)
    assert len(flags) == 1 and flags[0].stated == 3
    deg, genus, flags = ci_foliation_invariants(0, 2)
    assert (deg, genus) == (10, 11)
    assert len(flags) == 1 and flags[0].stated == 5
    assert not ci_foliation_invariants(0, 0)[2]
    for d1 in range(0, 4):
        for d2 in range(d1, 4):
            deg, genus, _ = ci_foliation_invariants(d1, d2)
            inv = invariants_from_c2(d1 + d2 + 1, (2 + d1) * (2 + d2))
            assert (deg, genus) == (inv.degC, inv.paC)


def test_rao_bounds():
    assert rao_bounds(0, True) == (0, 1, 1)
    assert rao_bounds(1, True) == (1, 2, 2)
    assert rao_bounds(4, False) == (4, 5, None)


def test_split_criterion():
    assert split_criterion(1) == "splits"
    assert split_criterion(2) == "twisted_null_correlation"
    assert split_criterion(3) == "impossible"
    assert split_criterion(4) == "undetermined"
    assert split_criterion(5) == "undetermined"
    with pytest.raises(OutOfBoundsError):
        split_criterion(0)


def test_report_json_shape():
    rep = classify_low_degree(3, 13, reduced_singular_scheme=True)
    data = rep.to_json()
    assert data["curve"] == {"degree": 5, "genus": -4}
    assert data["verdict"]["charge"] == 4
    assert data["dim_moduli"] == 14


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_legendrian_samples_of_degree_d_split_with_the_c2_formula_curve(d):
    """Two routes to a legendrian foliation of degree d: the computed
    singular curve is (d^2 + 1, d^3 - 2d^2 + d - 1), the curve of the c2 of
    O(-2) + O(-d-1), and its Rao profile {d - 1: 1} makes the conormal
    sheaf split."""
    expected = invariants_from_c2(d, 2 * d + 2)
    assert (expected.degC, expected.paC) == (d * d + 1, d ** 3 - 2 * d * d + d - 1)
    for seed in (0, 1):
        ideal = legendrian_sample(d, Random(seed)).ideal
        assert curve_invariants(ideal) == (expected.degC, expected.paC)
        profile = rao_module_dimensions(ideal)
        assert profile.profile == {d - 1: 1}
        assert split_criterion(profile.total) == "splits"


# the former classify.classify_low_degree, an if-ladder over the rows of
# Table 1, verbatim but for its name
def _former_classify_low_degree(d: int, c2N: int, reduced_singular_scheme: bool = False) -> ClassificationReport:
    """Full decision procedure for foliation degrees 1, 2 and 3."""
    if d not in (1, 2, 3):
        raise OutOfBoundsError("classification covers degrees 1, 2 and 3")
    lower, upper = d + 2, d * d + 2 * d + 1
    if not lower <= c2N <= upper:
        raise OutOfBoundsError(
            f"c2 = {c2N} outside [{lower}, {upper}] for a locally free conormal"
        )

    if d == 1:
        if c2N != 4:
            raise ImpossibleError(
                "degree-1 foliations with curve singular scheme have split "
                "conormal (-2, -2), so c2 must be 4"
            )
        inv = invariants_from_c2(1, 4)
        return ClassificationReport(
            verdict={"type": "split", "twists": [-2, -2]},
            degC=inv.degC, paC=inv.paC, components=2, dim_moduli=None,
            h0_OC=2, charge=None, flags=[],
        )

    if d == 2:
        if c2N % 2 != 0:
            raise ImpossibleError(
                f"degree-2 foliations need even c2 (genus formula), got {c2N}"
            )
        if c2N == 4:
            raise ImpossibleError(
                "c2 = 4 forces a section of the normalized conormal with "
                "negative-degree zero scheme; no such foliation exists"
            )
        if c2N == 8:
            raise ImpossibleError(
                "c2 = 8 would make the normalized conormal a stable (-1, 2) "
                "bundle, whose degree-2 syzygies drop rank on two planes; "
                "no such foliation exists"
            )
        inv = invariants_from_c2(2, 6)
        return ClassificationReport(
            verdict={"type": "split", "twists": [-2, -3]},
            degC=inv.degC, paC=inv.paC, components=1, dim_moduli=None,
            h0_OC=1, charge=None, flags=[],
        )

    # degree 3
    if c2N in (5, 6, 7):
        raise ImpossibleError(
            f"c2 = {c2N}: no split type with vanishing low twists exists and "
            "stability forces c2 >= 10"
        )
    if c2N == 16:
        raise ImpossibleError(
            "c2 = 16: the singular scheme would be a multiplicity-2 line of "
            "genus -13, contradicting 13-regularity of the normalized bundle"
        )
    if c2N == 15:
        raise ImpossibleError(
            "c2 = 15: the triple-line structures forced here give h1 of the "
            "curve ideal sheaf equal to 10, contradicting the monad bound"
        )
    if c2N in (8, 9):
        twists = [-2, -4] if c2N == 8 else [-3, -3]
        inv = invariants_from_c2(3, c2N)
        d1, d2 = -2 - twists[0], -2 - twists[1]
        _, _, flags = ci_foliation_invariants(min(d1, d2), max(d1, d2))
        return ClassificationReport(
            verdict={"type": "split", "twists": twists},
            degC=inv.degC, paC=inv.paC, components=1,
            dim_moduli=None, h0_OC=1, charge=None, flags=flags,
        )

    # stable range: c2N in 10..14, normalized charge n = c2N - 9
    n = c2N - 9
    inv = invariants_from_c2(3, c2N)
    constraints = []
    if reduced_singular_scheme:
        if n == 5:
            raise ImpossibleError(
                "c2 = 14 with reduced singular scheme: a degree-4 reduced "
                "curve cannot have 8 or more connected components"
            )
        if n == 4:
            constraints.append("charge-4 instanton with natural cohomology required")
            h0_options = [0]
        elif n == 3:
            constraints.append("h0(E(1)) <= 1 (special profiles excluded)")
            h0_options = [0, 1]
        else:
            h0_options = [None]
        dims = []
        h0s = []
        comps = []
        for h in h0_options:
            h1 = instanton_h1(n, h)
            dims.append(sum(h1.values()))
            h0s.append(sections_of_singular_scheme(n, _instanton_h0_e1(n, h)))
            comps.append(h1.get(1, 0) + 1)
        def collapse(xs):
            return xs[0] if len(set(xs)) == 1 else sorted(set(xs))
        return ClassificationReport(
            verdict={"type": "instanton", "charge": n, "constraints": constraints},
            degC=inv.degC, paC=inv.paC,
            components=collapse(comps), dim_moduli=collapse(dims),
            h0_OC=collapse(h0s), charge=n, flags=[],
        )
    constraints.append("stable normalized conormal; instanton property needs a reduced singular scheme")
    if n == 4:
        constraints.append("t'Hooft charge-4 profile excluded")
    if n == 5:
        constraints.append("natural-cohomology and t'Hooft charge-5 profiles excluded")
    return ClassificationReport(
        verdict={"type": "instanton", "charge": n, "constraints": constraints},
        degC=inv.degC, paC=inv.paC, components=None, dim_moduli=None,
        h0_OC=None, charge=n, flags=[],
    )


def _outcome(run, *args):
    """The report run(*args) gives, its repr and JSON, or the class and
    message of the error it raises."""
    try:
        report = run(*args)
    except FolcurvesError as exc:
        return type(exc), str(exc)
    return report, repr(report), report.to_json()


def test_classification_equals_the_former_ladder_of_rows():
    """Table 1 read from data gives the former if-ladder's report, repr and
    JSON, or its error class and message, on every degree -1..5, c2 -2..21
    and reducedness."""
    for d in range(-1, 6):
        for c2 in range(-2, 22):
            for reduced in (False, True):
                assert (_outcome(classify_low_degree, d, c2, reduced)
                        == _outcome(_former_classify_low_degree, d, c2, reduced)), (d, c2, reduced)


@pytest.mark.parametrize("row", sorted(_SPLIT_ROWS))
def test_each_split_row_is_a_conormal_of_its_degree_and_c2(row):
    """A split conormal O(a) + O(b) of a degree-d foliation has a + b =
    -(d + 3) and c2 = a*b, and the row's report carries the curve of
    invariants_from_c2."""
    d, c2 = row
    twists, _, _ = _SPLIT_ROWS[row]
    assert sum(twists) == -(d + 3) and twists[0] * twists[1] == c2
    report = classify_low_degree(d, c2)
    inv = invariants_from_c2(d, c2)
    assert report.verdict == {"type": "split", "twists": list(twists)}
    assert (report.degC, report.paC) == (inv.degC, inv.paC)
