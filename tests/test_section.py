"""The section's run on three variables, each monomial packed in 10-bit
fields, against the former run on four variables (four_variable_section),
and the narrow packing's degree cap."""

import json
from random import Random

import pytest

from folcurves import cli, forms, groebner, section
from folcurves.errors import ResourceLimitError
from folcurves.polyring import _STEPS

import four_variable_section as former
from test_groebner import HILBERT_POOL, LINE_TRIPLE, _ideal, _pool_like

# CI's multiples-of-P inputs: forms whose every coefficient is a multiple of
# P, which cut to zero mod P, and the same forms divided by P
CI_MULTIPLES = {
    "koszul": ["z0^3 + 2*z1^3", "z2^2*z0 + z3^3", "z1*z2*z3 + z0^3"],
    "line": LINE_TRIPLE,
    "degree-8": ["z0^8 + z3^8", "z1^8 + z2^8", "z2^8 - z3^8"],
}


def _three_variable_run(generators, numerator: dict, plane: int):
    """(elements, certified) of section's run on one plane, as
    section._certifies runs it, its elements False when a cut vanishes mod P
    and None when the run gives up."""
    target = groebner._series([*numerator.items(), *((a + 1, -c) for a, c in numerator.items())])
    cuts = [section._section_cut(g, plane) for g in generators]
    elements = all(cuts) and groebner._groebner_elements(cuts, ring=section._OVER_FP, bound=target)
    # the leads lifted to polyring's packing, with z3
    leads = elements and [_STEPS[3], *(section._lift(e[0]) for e in elements)]
    return elements, bool(leads) and dict(groebner._minimal_numerator(
        groebner._minimalize(leads))) == target


def _lifted(elements):
    """The basis elements of section's run in polyring's packing."""
    lift = section._lift
    return [(lift(lead), a, [(lift(m), c) for m, c in tail]) for lead, a, tail in elements]


def _assert_same_runs(generators, numerator: dict) -> list:
    """On each plane the two runs give the same verdict and the same
    lifted lead set, and indeed the same elements but for the former run's
    z3.  Returns the verdict on each plane."""
    verdicts = []
    for plane in range(len(section.PLANES)):
        elements, certified = _three_variable_run(generators, numerator, plane)
        former_elements, former_certified = former.four_variable_run(generators, numerator, plane)
        assert certified == former_certified, ([str(g) for g in generators], plane)
        if former_elements:
            assert {_STEPS[3]} | {e[0] for e in _lifted(elements)} == {
                e[0] for e in former_elements}
            assert [(_STEPS[3], 1, [])] + _lifted(elements) == former_elements
        else:
            assert elements is former_elements  # False: a cut vanishes; None: a give-up
        verdicts.append(certified)
    return verdicts


def test_three_variables_run_as_four_on_the_hilbert_pool():
    """All 240 pool ideals under both the Koszul and the line bound, each
    (bound, verdict on the first plane, on the second) counted.  The line
    bound is a lower bound only for forms in a coordinate line ideal; on
    the others a Hilbert skip on it drops leads, so that the run meets it on
    most complete intersections, which section never runs under it.  The
    two runs agree there too."""
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    seen = {}
    for entry in pool:
        gens = _ideal(*entry["text"].splitlines()).generators
        degrees = [g.degree for g in gens]
        for name, numerator in (("Koszul", groebner._ci_numerator(degrees)),
                                ("line", section._line_bound(degrees))):
            verdicts = _assert_same_runs(gens, numerator)
            assert section._certifies(gens, numerator) == any(verdicts)
            key = name, *verdicts
            seen[key] = seen.get(key, 0) + 1
    assert seen == {("Koszul", True, True): 207, ("Koszul", True, False): 2,
                    ("Koszul", False, True): 4, ("Koszul", False, False): 27,
                    ("line", True, True): 234, ("line", False, True): 2,
                    ("line", False, False): 4}, seen


def test_three_variables_run_as_four_on_held_out_draws(monkeypatch):
    """1000 pool-like draws from Random(4242), under the bound each one's
    _section_numerator tries, which certifies exactly when a plane does."""
    tried = []
    certifies = section._certifies
    monkeypatch.setattr(section, "_certifies", lambda gens, numerator: tried.append(
        (numerator, certifies(gens, numerator))) or tried[-1][1])
    rng = Random(4242)
    runs = certified = 0
    for _ in range(1000):
        gens = _pool_like(rng)
        tried.clear()
        section._section_numerator(gens)
        for numerator, answer in tried:
            assert any(_assert_same_runs(gens, numerator)) == answer
            certified += answer
            runs += 1
    assert runs == 993 and certified == 986, (runs, certified)


def test_three_variables_run_as_four_on_contact_wedges():
    """The contact form wedged with the seeded 1-form of degree 1 to 23
    under the conormal bound; each certifies on the first plane."""
    contact = forms.standard_contact_form()
    for d in range(1, 24):
        omega = forms.random_projective_oneform(d, Random(0))
        ideal = forms._wedge_ideal(contact, omega, forms.wedge(contact, omega))
        verdicts = _assert_same_runs(ideal.generators, section._conormal_bound(*ideal._conormal))
        assert verdicts[0], d


@pytest.mark.parametrize("name", list(CI_MULTIPLES))
def test_three_variables_run_as_four_on_the_ci_multiples_of_p(name):
    """Each CI input and the same forms times P, whose cuts vanish, under
    the Koszul and the line bound: the divided forms certify on both planes
    by the bound section tries, the line bound for the line triple, and the
    multiples on neither plane by either bound."""
    divided = _ideal(*CI_MULTIPLES[name]).generators
    multiples = [g.scale(section.P) for g in divided]
    degrees = [g.degree for g in divided]
    tried = "line" if name == "line" else "koszul"
    for gens in (divided, multiples):
        for bound, numerator in (("koszul", groebner._ci_numerator(degrees)),
                                 ("line", section._line_bound(degrees))):
            verdicts = _assert_same_runs(gens, numerator)
            assert section._certifies(gens, numerator) == any(verdicts)
            if gens is multiples or bound == tried:
                assert verdicts == [gens is divided] * 2, bound


def test_an_uncertified_run_on_three_variables_steers_as_four_do(monkeypatch):
    """With no certificate, a run on the cuts steers by the Koszul bound of
    its kept forms and z3, as the former run steers by that of the cuts and
    z3: on every pool ideal's first-plane cuts the S-polynomials of the same
    lcms are divided, in the same order, to the same elements."""
    divided = []
    real = groebner._s_polynomial_terms
    monkeypatch.setattr(groebner, "_s_polynomial_terms",
                        lambda e, f, top: divided.append(top) or real(e, f, top))
    pairs = 0
    for entry in json.loads(HILBERT_POOL.read_text())["ideals"]:
        gens = _ideal(*entry["text"].splitlines()).generators
        divided.clear()
        elements = groebner._groebner_elements([section._section_cut(g) for g in gens],
                                               ring=section._OVER_FP)
        mine, divided[:] = [section._lift(top) for top in divided], []
        former_elements = groebner._groebner_elements(
            [f._cleared[1] for f in [former._section_cut(g) for g in gens] + [former._Z3]],
            ring=former._OVER_FP_ON_FOUR)
        assert [(_STEPS[3], 1, [])] + _lifted(elements) == former_elements
        assert mine == divided
        pairs += len(mine)
    assert pairs > 240


def test_a_run_past_the_narrow_cap_is_a_miss_that_takes_the_exact_route(
        monkeypatch, tmp_path, capsys):
    """With the cap of the narrow packing lowered below the S-pairs of a pool
    ideal the section certifies, its run misses on both planes, as a
    give-up does, and the hilbert query prints the pool's reference output
    through the exact route.  Without a certificate the same run refuses
    the S-polynomial, as the exact route refuses one over MAX_DEGREE."""
    entry = json.loads(HILBERT_POOL.read_text())["ideals"][0]
    gens = _ideal(*entry["text"].splitlines()).generators
    assert section._section_numerator(gens) is not None
    monkeypatch.setattr(section, "_OVER_FP", (*section._OVER_FP[:-1], 4))
    runs = []
    real = groebner._groebner_elements
    monkeypatch.setattr(groebner, "_groebner_elements",
                        lambda gens, **kw: runs.append(real(gens, **kw)) or runs[-1])
    assert section._section_numerator(gens) is None
    assert runs == [None, None]
    path = tmp_path / "pool0.ideal"
    path.write_text(entry["text"])
    runs.clear()
    assert cli.main(["hilbert", str(path), "--json"]) == 0
    assert capsys.readouterr().out == entry["stdout"]
    assert runs[:2] == [None, None] and len(runs) == 3 and runs[2]  # the exact route's basis
    cuts = [section._section_cut(g) for g in gens]
    with pytest.raises(ResourceLimitError,
                       match=r"^buchberger: S-polynomial of degree \d+ exceeds degree cap 4$"):
        real(cuts, ring=section._OVER_FP)


def test_the_narrow_cap_fits_the_packing():
    """Every exponent of a monomial of degree at most the cap fits below
    its field's guard bit, so the monomial is one 30-bit digit."""
    _, _, steps, guard, width, cap = section._OVER_FP
    assert steps == tuple(1 << width * v for v in range(3)) and cap == (1 << width - 1) - 1
    assert guard == sum(step << width - 1 for step in steps)
    assert (cap << 2 * width).bit_length() <= 30
