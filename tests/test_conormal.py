"""The conormal certificate of wedge ideals against the exact route.

forms._wedge_ideal records the factor degrees (c_a, c_b) of a wedge ideal;
its first Hilbert query tries the conormal bound on the section, and a
certified ideal keeps that numerator and (c_a, c_b), whose Rao twist is
c_a + c_b - 2 = d - 1.  The exact route, a basis over Q and a resolution,
stays the oracle: each certified answer must equal that of
GradedIdeal(generators), the same generators with no certificate."""

import json
import time
from math import comb
from pathlib import Path
from random import Random

import pytest

from folcurves import cli, section
from folcurves.errors import (NotACurveError, ProportionalInputError, WindowTooSmallError,
                              ZeroFormError)
from folcurves.forms import (
    _wedge_ideal,
    legendrian_foliation,
    legendrian_sample,
    parse_form,
    pencil_form,
    random_projective_oneform,
    standard_contact_form,
    wedge,
)
from folcurves.groebner import GradedIdeal, _ci_hilbert_function, curve_invariants
from folcurves.polyring import HomogeneousPolynomial
from folcurves.resolution import rao_module_dimensions
from folcurves.section import _MAX_CONORMAL_DEGREE, _conormal_bound
from folcurves.sheafcoh import cotangent_cohomology, line_bundle_cohomology

RAO_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rao_pool.json"
CONTACT = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"


def _certified_twist(ideal):
    """The Rao twist c_a + c_b - 2 of the ideal's certified conormal bound,
    read after its first Hilbert query, which this makes; None when that
    query certified none."""
    ideal.hilbert_numerator()
    return None if ideal._conormal is None else sum(ideal._conormal) - 2


def _certified(a, b):
    """The wedge ideal of a and b, asserted certified by its first query."""
    ideal = _wedge_ideal(a, b, wedge(a, b))
    assert _certified_twist(ideal) == a.coefficient_degree + b.coefficient_degree - 2
    assert ideal._numerator == _conormal_bound(a.coefficient_degree, b.coefficient_degree)
    assert ideal._elements is None and ideal._resolution is None
    return ideal


def _profile(ideal, window=None):
    """rao_module_dimensions(ideal, window).to_json(), or the error's type."""
    try:
        return rao_module_dimensions(ideal, window).to_json()
    except (ValueError, WindowTooSmallError) as exc:
        return type(exc)


def _assert_exact(ideal, rao=True):
    """The certified numerator, and with rao the Rao profile, equal those of
    the exact route on the same generators."""
    exact = GradedIdeal(ideal.generators)
    assert ideal.hilbert_numerator() == exact.hilbert_numerator()
    assert list(ideal.hilbert_numerator()) == sorted(ideal.hilbert_numerator())
    if rao:
        assert _profile(ideal) == _profile(exact)
    if ideal._conormal is not None:  # the certificate answered: no basis, no resolution
        assert ideal._elements is None and ideal._resolution is None


@pytest.mark.parametrize("c_a, c_b", [(c_a, c_b) for c_a in range(1, 5) for c_b in range(1, 5)])
def test_the_closed_form_is_the_conormal_series(c_a, c_b):
    """N(t) / (1-t)^4 has coefficient C(k+3, 3) - h^0(Omega^1(t)) +
    h^0(O(t-1-c_a)) + h^0(O(t-1-c_b)) at t^k, t = k - d + 1, for
    k <= 3d + 7."""
    d = c_a + c_b - 1
    numerator = _conormal_bound(c_a, c_b)
    for k in range(3 * d + 8):
        t = k - d + 1
        bound = (comb(k + 3, 3) - cotangent_cohomology(1, t)[0]
                 + line_bundle_cohomology(t - 1 - c_a)[0] + line_bundle_cohomology(t - 1 - c_b)[0])
        assert _ci_hilbert_function(numerator, k) == bound, k


def test_every_rao_pool_entry_but_the_monomial_pencil_is_certified_and_exact():
    """The pencil's wedge with the contact form is its own basis, so it is
    never cut; every other entry is certified, with the exact route's
    numerator and Rao profile."""
    pool = json.loads(RAO_POOL.read_text())
    entries = (pool["degree2"] + pool["degree2_special"] + pool["degree3"]
               + [pool["pencil"], pool["warmup"]])
    certified = 0
    for entry in entries:
        a, b = parse_form(entry.get("first", CONTACT)), parse_form(entry["omega"])
        ideal = _wedge_ideal(a, b, wedge(a, b))
        if entry is pool["pencil"]:
            assert _certified_twist(ideal) is None and ideal._elements is not None
        else:
            assert _certified_twist(ideal) == entry["degree"] - 1
            certified += 1
        _assert_exact(ideal)
        assert rao_module_dimensions(ideal).to_json() == entry["rao"]
    assert certified == len(entries) - 1 == 74


@pytest.mark.parametrize("d", range(2, 11))
def test_legendrian_samples_are_certified_and_exact(d):
    sample = legendrian_sample(d, Random(0))
    assert _certified_twist(sample.ideal) == d - 1
    _assert_exact(sample.ideal)
    assert curve_invariants(sample.ideal) == (d * d + 1, d ** 3 - 2 * d * d + d - 1)


@pytest.mark.parametrize("c_a, c_b", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_every_split_type_up_to_cubic_coefficients_is_certified_and_exact(c_a, c_b):
    rng = Random(100 * c_a + c_b)
    for _ in range(2):
        a, b = random_projective_oneform(c_a, rng), random_projective_oneform(c_b, rng)
        _assert_exact(_certified(a, b))


def test_a_thousand_held_out_wedges_are_certified_and_exact():
    """Their numerators all, their Rao profiles on every 25th."""
    rng = Random(45)
    for i in range(1000):
        a = random_projective_oneform(rng.randint(1, 3), rng)
        b = random_projective_oneform(rng.randint(1, 3), rng)
        _assert_exact(_certified(a, b), rao=i % 25 == 0)


def test_a_common_factor_misses_and_takes_the_exact_route():
    """z0 * a wedged with b vanishes on the plane z0 = 0: the bound is too
    low there, the section misses, and the exact route answers."""
    rng = Random(7)
    for c_a, c_b in ((1, 1), (1, 2), (2, 2)):
        a = random_projective_oneform(c_a, rng).scale_by_polynomial(
            HomogeneousPolynomial.variable(0))
        b = random_projective_oneform(c_b, rng)
        ideal = _wedge_ideal(a, b, wedge(a, b))
        assert _certified_twist(ideal) is None and ideal._elements is not None
        _assert_exact(ideal, rao=False)
        with pytest.raises(NotACurveError):
            curve_invariants(ideal)


def test_a_form_whose_cut_vanishes_mod_p_gives_the_divided_forms_answer(capsys):
    """omega times P cuts to zero mod P, so its wedge takes the exact route;
    its curve and Rao profile are those the certificate gives omega."""
    omega = random_projective_oneform(3, Random(0))
    payloads = []
    for form in (omega, omega.scale(section.P)):
        assert cli.main(["wedge", CONTACT, str(form), "--invariants", "--rao", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        payloads.append((payload["invariants"], payload["rao"]))
    assert payloads[0] == payloads[1] == ({"degree": 10, "genus": 11},
                                          {"profile": {"2": 1}, "total": 1})
    contact = standard_contact_form()
    multiple = omega.scale(section.P)
    ideal = _wedge_ideal(contact, multiple, wedge(contact, multiple))
    assert _certified_twist(ideal) is None and ideal._elements is not None


def test_a_zero_wedge_is_still_refused():
    contact = standard_contact_form()
    with pytest.raises(ZeroFormError):
        _wedge_ideal(contact, contact, wedge(contact, contact))
    with pytest.raises(ProportionalInputError):
        legendrian_foliation(contact, contact.scale(3))


def test_windows_behave_as_the_exact_walk_does():
    """A window that leaves d - 1 out gives the empty profile, one that ends
    at it is too small, and an empty one is refused, as on the exact walk."""
    for d in (2, 3, 5):
        ideal = legendrian_sample(d, Random(1)).ideal
        exact = GradedIdeal(ideal.generators)
        for window in (None, (0, 4 * d), (d, 3 * d), (-3, d - 2), (d - 1, 2 * d),
                       (-1, d - 1), (d - 1, d - 1), (d - 2, d), (5, 4)):
            got = _profile(ideal, window)
            assert got == _profile(exact, window), (d, window)
        assert _profile(ideal, (d, 3 * d)) == {"profile": {}, "total": 0}
        assert _profile(ideal, (d - 1, 2 * d)) is WindowTooSmallError
        assert ideal._elements is None


@pytest.mark.parametrize("d", [16, 18, 20])
def test_wedge_answers_high_degrees_with_the_papers_curve(d, capsys):
    """The exact route refuses d = 16 at Buchberger's pop cap; the
    certificate answers with the curve (d^2 + 1, d^3 - 2d^2 + d - 1) and
    the Rao profile {d - 1: 1}."""
    omega = str(random_projective_oneform(d, Random(0)))
    assert cli.main(["wedge", CONTACT, omega, "--invariants", "--rao", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["invariants"] == {"degree": d * d + 1, "genus": d ** 3 - 2 * d * d + d - 1}
    assert payload["rao"] == {"profile": {str(d - 1): 1}, "total": 1}


def _sparse_omega(n):
    """A projective 1-form of coefficient degree n + 1 with four terms."""
    return f"z3^{n}*(z0*dz1 - z1*dz0) + z0^{n}*(z2*dz3 - z3*dz2)"


def _count_certificates(monkeypatch):
    """The (generators, numerator) of each section._certifies call from now on."""
    calls = []
    real = section._certifies

    def spy(generators, numerator):
        calls.append((generators, numerator))
        return real(generators, numerator)

    monkeypatch.setattr(section, "_certifies", spy)
    return calls


def test_no_wedge_above_the_conormal_cap_is_cut(monkeypatch):
    """c_a + c_b = _MAX_CONORMAL_DEGREE is cut on the section at the first
    Hilbert query (this wedge vanishes on a surface, so it misses); one
    degree more is left to the exact route uncut."""
    calls = _count_certificates(monkeypatch)
    contact = standard_contact_form()
    for n, cuts in ((_MAX_CONORMAL_DEGREE - 2, 1), (_MAX_CONORMAL_DEGREE - 1, 0)):
        calls.clear()
        omega = parse_form(_sparse_omega(n))
        ideal = _wedge_ideal(contact, omega, wedge(contact, omega))
        assert calls == []
        assert _certified_twist(ideal) is None and ideal._elements is not None
        assert len(calls) == cuts


@pytest.mark.parametrize("flags, code", [
    (["--legendrian"], 0), (["--invariants"], 2), (["--legendrian", "--invariants", "--rao"], 2),
])
def test_a_sparse_form_of_huge_degree_is_answered_quickly_and_uncut(flags, code, monkeypatch):
    """Its wedge with the contact form has coefficients of degree 10^5 + 2,
    far above the conormal cap: no section is cut, and the exact route
    finds the surface in well under 1 s."""
    calls = _count_certificates(monkeypatch)
    started = time.perf_counter()
    assert cli.main(["wedge", CONTACT, _sparse_omega(100_000), *flags]) == code
    assert time.perf_counter() - started < 1
    assert calls == []


def test_legendrian_wedge_alone_cuts_no_section(monkeypatch, capsys):
    """wedge --legendrian builds its presentation with legendrian_foliation
    but makes no Hilbert query, so it cuts no section; the same call with
    --invariants certifies it, and a multiple of the contact form is still
    refused."""
    calls = _count_certificates(monkeypatch)
    omega = str(random_projective_oneform(2, Random(0)))
    assert cli.main(["wedge", CONTACT, omega, "--legendrian"]) == 0
    assert calls == []
    assert cli.main(["wedge", CONTACT, omega, "--legendrian", "--invariants"]) == 0
    assert len(calls) == 1
    multiple = str(standard_contact_form().scale(3))
    assert cli.main(["wedge", CONTACT, multiple, "--legendrian"]) == 2
    assert "multiple of the contact form" in capsys.readouterr().err


def test_the_first_hilbert_query_alone_cuts_the_conormal_certificate(monkeypatch):
    """_wedge_ideal and legendrian_foliation record (c_a, c_b) and cut no
    section.  The first hilbert_polynomial makes the one run that building
    the ideal made before the certificate moved into GradedIdeal: the
    conormal bound of a wedge ideal that is not its own basis, up to the
    cap, whether it certifies or misses; a monomial wedge and one above the
    cap make none.  A Rao profile after it makes none and builds no basis,
    and neither does one asked first, past the one run of its query."""
    calls = _count_certificates(monkeypatch)
    contact, rng = standard_contact_form(), Random(48)
    omega = random_projective_oneform(2, rng)
    common = random_projective_oneform(1, rng).scale_by_polynomial(
        HomogeneousPolynomial.variable(0))
    over = parse_form(_sparse_omega(_MAX_CONORMAL_DEGREE - 1))
    for a, b, runs in ((contact, omega, 1), (common, omega, 1), (pencil_form(), contact, 0),
                       (contact, over, 0)):
        ideal = _wedge_ideal(a, b, wedge(a, b))
        assert calls == []
        ideal.hilbert_polynomial()
        bound = _conormal_bound(a.coefficient_degree, b.coefficient_degree)
        assert calls == [(ideal.generators, bound)] * runs
        calls.clear()

    def refuse(*args):
        raise AssertionError("the certified ideal needs no basis")

    for query_first in (True, False):
        ideal = legendrian_foliation(contact, omega).ideal
        assert calls == []
        if query_first:
            ideal.hilbert_polynomial()
            assert calls == [(ideal.generators, _conormal_bound(1, 2))]
            calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(GradedIdeal, "_basis_elements", refuse)
            assert rao_module_dimensions(ideal).to_json() == {"profile": {"1": 1}, "total": 1}
        assert calls == ([] if query_first else [(ideal.generators, _conormal_bound(1, 2))])
        assert ideal._elements is None and ideal._resolution is None
        calls.clear()
