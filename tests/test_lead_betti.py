"""The lead ideal's Betti table and the resolution it schedules: the table
against two resolutions of the monomial ideal in(I) and against the
legendrian closed form, the scheduled resolution against the former eager
loop (eager_resolution), and its deferred columns."""

import json
from collections import Counter
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from eager_resolution import eager_resolve
from folcurves import resolution, verification
from folcurves.forms import legendrian_sample, parse_form, singular_ideal, wedge
from folcurves.groebner import GradedIdeal
from folcurves.polyring import _from_integers, mono_degree
from folcurves.resolution import lead_betti, minimal_free_resolution, rao_module_dimensions

RAO_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rao_pool.json"
CONTACT = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"


@lru_cache(maxsize=None)
def _sets():
    """The generators of each set the table is checked on: the 74 ideals of
    the rao-queries pool, the legendrian samples of degree 2 to 8 with
    seeds 0 and 1, and 150 draws of verification._random_ideal."""
    pool = json.loads(RAO_POOL.read_text())
    entries = [pool["pencil"]] + pool["degree2_special"] + pool["degree2"] + pool["degree3"]
    rao = [singular_ideal(wedge(parse_form(e.get("first", CONTACT)), parse_form(e["omega"])))
           for e in entries]
    legendrian = [legendrian_sample(d, Random(seed)).ideal for d in range(2, 9) for seed in (0, 1)]
    draws = Random(39)
    random = [verification._random_ideal(draws) for _ in range(150)]
    return {name: [ideal.generators for ideal in ideals]
            for name, ideals in (("rao", rao), ("legendrian", legendrian), ("random", random))}


def _ideals():
    """Fresh ideals of every set, so that no resolution is kept between
    tests."""
    return [(name, GradedIdeal(gens)) for name, ideals in _sets().items() for gens in ideals]


def _table(res):
    """The Betti table of a resolution in lead_betti's form."""
    return tuple(sorted(Counter((layer, -b) for layer, twists in enumerate(res.twists)
                                for b in twists).items()))


def _k_polynomial(table):
    kpoly = Counter()
    for (layer, e), n in table:
        kpoly[e] += (-1) ** layer * n
    return {e: c for e, c in kpoly.items() if c}


def test_lead_betti_is_the_betti_table_of_the_resolved_lead_ideal():
    """lead_betti(in(I)) is the Betti table of in(I) as the package resolves
    it, scheduled by that table, and as the former eager loop resolves it,
    which never reads the table; its K-polynomial is I's Hilbert
    numerator."""
    seen = Counter()
    for name, ideal in _ideals():
        lead = ideal._packed_lead()
        table = lead_betti(lead)
        mono = [_from_integers(mono_degree(g), 1, {g: 1}) for g in lead]
        assert table == _table(minimal_free_resolution(GradedIdeal(mono))), (name, lead)
        assert table == _table(eager_resolve(GradedIdeal(mono))), (name, lead)
        assert _k_polynomial(table) == ideal.hilbert_numerator()
        seen[name] += 1
    assert seen == {"rao": 74, "legendrian": 14, "random": 150}


@pytest.mark.parametrize("d", range(2, 7))
def test_legendrian_resolutions_have_the_closed_form_table(d):
    """S <- S(-d-1)^5 <- S(-d-2)^4 + S(-2d) <- S(-d-3) for the legendrian
    samples of degree d with seeds 0 and 1; the lead ideal's table bounds
    it entrywise and has its K-polynomial."""
    closed = Counter({(0, 0): 1, (1, d + 1): 5, (2, d + 2): 4, (3, d + 3): 1})
    closed[2, 2 * d] += 1
    for seed in (0, 1):
        ideal = legendrian_sample(d, Random(seed)).ideal
        res = minimal_free_resolution(ideal)
        assert _table(res) == tuple(sorted(closed.items())), (d, seed)
        table = dict(lead_betti(ideal._packed_lead()))
        assert all(table.get(key, 0) >= n for key, n in closed.items()), (d, seed, table)
        assert _k_polynomial(table.items()) == _k_polynomial(closed.items())


def test_scheduled_resolution_matches_the_eager_loop():
    """The same twists and every differential, column for column, as the
    former loop, which visited every degree up to regularity_bound() + L + 1
    and built every column at once.  A column whose build was deferred is
    built on the first read of its layer, and equals the eager one.  Layer
    2 defers its generator of degree 2d on the legendrian samples of degree
    d >= 3 and the ten degree-3 draws of the pool, where 2d lies past layer
    1's stop, d + 2."""
    deferred = Counter()
    for name, ideal in _ideals():
        res, eager = minimal_free_resolution(ideal), eager_resolve(ideal)
        assert res.twists == eager.twists, name
        # the last degree of the table that scheduled it: the lead ideal's,
        # or for a complete intersection the Koszul complex's, the top twist
        last = max(e for _, e in dict(lead_betti(ideal._packed_lead())))
        assert res.bound == (last if resolution._koszul_degrees(ideal) is None
                             else -res.twists[-1][0]), name
        for layer in res.differentials.deferred:  # the unbuilt columns hold None
            deferred[name] += list.__getitem__(res.differentials, layer).count(None)
        assert [res.differentials[i] for i in range(res.length())] == eager.differentials, name
        assert not res.differentials.deferred and None not in sum(eager.differentials, [])
    assert deferred["legendrian"] == 12 and deferred["rao"] == 10, deferred


def test_differentials_read_as_a_list():
    """Slices, iteration, equality and repr read the deferred columns too,
    and each is built once."""
    ideal = legendrian_sample(4, Random(0)).ideal
    eager = eager_resolve(ideal)
    res = minimal_free_resolution(ideal)
    assert res.differentials.deferred
    assert res.differentials[1:] == eager.differentials[1:]
    assert not res.differentials.deferred
    for read in (list, repr, lambda d: d == eager.differentials):
        res = minimal_free_resolution(GradedIdeal(ideal.generators))
        assert res.differentials.deferred
        read(res.differentials)
        assert not res.differentials.deferred
        assert list(res.differentials) == eager.differentials
    assert res == type(res)(eager.twists, eager.differentials, res.bound)


def test_the_rao_walk_builds_no_deferred_column(monkeypatch):
    """The Rao walk reads d_3 and d_4 only: after it, layer 2's deferred
    columns are still unbuilt, and no kernel of d_1 was taken for them.
    Reading differentials[1] then takes each once."""
    kernels = []
    real = resolution.graded_kernel
    monkeypatch.setattr(resolution, "graded_kernel",
                        lambda columns, basis, rows: kernels.append(len(basis))
                        or real(columns, basis, rows))
    walked = 0
    for d in range(3, 9):
        ideal = legendrian_sample(d, Random(0)).ideal
        res = minimal_free_resolution(ideal)
        assert rao_module_dimensions(ideal).profile == {d - 1: 1}
        assert kernels == [] and list(res.differentials.deferred) == [1], d
        res.differentials[1]
        assert len(kernels) == 1 and not res.differentials.deferred
        kernels.clear()
        walked += 1
    assert walked == 6
