"""The section's run on three variables, each monomial packed in 10-bit
fields: its elements reduce the cuts to zero over F_P, its verdicts are
pinned per input set, and the narrow packing's degree cap."""

import json
from random import Random

import pytest

from folcurves import cli, forms, groebner, hilbert, section
from folcurves.errors import ResourceLimitError
from folcurves.polyring import _STEPS

import oracles
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
    target = hilbert._series([*numerator.items(), *((a + 1, -c) for a, c in numerator.items())])
    cuts = [section._section_cut(g, plane) for g in generators]
    elements = all(cuts) and groebner._groebner_elements(cuts, ring=section._OVER_FP, bound=target)
    # the leads lifted to polyring's packing, with z3
    leads = elements and [_STEPS[3], *(section._lift(e[0]) for e in elements)]
    return elements, bool(leads) and dict(hilbert._minimal_numerator(
        hilbert._minimalize(leads))) == target


def _narrow_terms(terms: dict) -> dict:
    """Terms over z0..z2 packed in 10-bit fields as exponent tuples."""
    return {(m & 1023, m >> 10 & 1023, m >> 20, 0): c for m, c in terms.items()}


def _assert_runs(generators, numerator: dict) -> list:
    """On each plane, the run's elements, where it finishes, have their
    degrevlex largest term first and reduce every cut form to zero over
    F_P.  Returns the verdict on each plane."""
    verdicts = []
    for plane in range(len(section.PLANES)):
        elements, certified = _three_variable_run(generators, numerator, plane)
        if elements:
            basis = [_narrow_terms({lead: a, **dict(tail)}) for lead, a, tail in elements]
            assert [oracles.lead_of(g) for g in basis] == [
                _narrow_terms({e[0]: 1}).popitem()[0] for e in elements]
            for g in generators:
                assert not oracles.remainder(_narrow_terms(section._section_cut(g, plane)), basis,
                                             section.P)
        verdicts.append(certified)
    return verdicts


def test_three_variables_run_as_four_on_the_hilbert_pool():
    """All 240 pool ideals under both the Koszul and the line bound, each
    (bound, verdict on the first plane, on the second) counted.  The line
    bound is a lower bound only for forms in a coordinate line ideal; on
    the others a Hilbert skip on it drops leads, so that the run meets it on
    most complete intersections, which section never runs under it."""
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    seen = {}
    for entry in pool:
        gens = _ideal(*entry["text"].splitlines()).generators
        degrees = [g.degree for g in gens]
        for name, numerator in (("Koszul", hilbert._ci_numerator(degrees)),
                                ("line", hilbert._line_bound(degrees))):
            verdicts = _assert_runs(gens, numerator)
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
            assert any(_assert_runs(gens, numerator)) == answer
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
        verdicts = _assert_runs(ideal.generators, hilbert._conormal_bound(*ideal._conormal))
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
        for bound, numerator in (("koszul", hilbert._ci_numerator(degrees)),
                                 ("line", hilbert._line_bound(degrees))):
            verdicts = _assert_runs(gens, numerator)
            assert section._certifies(gens, numerator) == any(verdicts)
            if gens is multiples or bound == tried:
                assert verdicts == [gens is divided] * 2, bound


def test_an_uncertified_run_on_three_variables_steers_as_four_do(monkeypatch):
    """With no certificate, a run on the cuts steers by the Koszul bound of
    its kept forms and z3: on every pool ideal's first-plane cuts it divides
    as many S-polynomials, 2544, as the run on four variables, the cuts and
    z3 steered by theirs, divided, and its elements reduce the cuts to zero
    over F_P."""
    divided = []
    real = groebner._s_polynomial_terms
    monkeypatch.setattr(groebner, "_s_polynomial_terms",
                        lambda e, f, top: divided.append(top) or real(e, f, top))
    for entry in json.loads(HILBERT_POOL.read_text())["ideals"]:
        cuts = [section._section_cut(g) for g in _ideal(*entry["text"].splitlines()).generators]
        elements = groebner._groebner_elements(cuts, ring=section._OVER_FP)
        basis = [_narrow_terms({lead: a, **dict(tail)}) for lead, a, tail in elements]
        assert not any(oracles.remainder(_narrow_terms(cut), basis, section.P) for cut in cuts)
    assert len(divided) == 2544


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
