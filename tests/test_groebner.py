"""Groebner engine: bases, Hilbert data, syzygies, resolutions, Rao profiles."""

import hashlib
import json
import re
import time
from fractions import Fraction
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, lcm
from pathlib import Path
from random import Random

import pytest

from folcurves import cli, groebner, polyring, resolution, verification
from folcurves.errors import (
    CrossCheckFailureError,
    DegreeMismatchError,
    NotACurveError,
    ResourceLimitError,
    WindowTooSmallError,
)
from folcurves.forms import legendrian_sample, parse_form, singular_ideal, wedge
from folcurves.groebner import (
    DEFAULT_PAIR_CAP,
    GradedIdeal,
    _divide,
    buchberger,
    curve_invariants,
    normal_form,
)
from folcurves.linalg import Echelon, kernel_of_columns
from folcurves.polyring import (
    HomogeneousPolynomial,
    NVARS,
    _from_integers,
    _pack,
    _unpack,
    graded_piece_dimension,
    integer_terms,
    monomials_of_degree,
    parse_polynomial,
)
from folcurves.resolution import (
    FreeResolution,
    _degree_basis,
    _degree_matrix,
    _dual_map_rank,
    _element,
    graded_syzygies,
    minimal_free_resolution,
    rao_module_dimensions,
)
from tuple_monomials import ONE_MONO, degrevlex_key, mono_degree, mono_mul

SKEW = ["z0*z2", "z0*z3", "z1*z2", "z1*z3"]


# The monomial operations on exponent tuples that polyring and groebner had
# before groebner moved to packed exponent vectors, kept verbatim for the
# tuple oracles below, so that no oracle calls the code it checks.


def mono_divides(d, m) -> bool:
    return d[0] <= m[0] and d[1] <= m[1] and d[2] <= m[2] and d[3] <= m[3]


def mono_quotient(m, d):
    return (m[0] - d[0], m[1] - d[1], m[2] - d[2], m[3] - d[3])


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def mono_coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def s_polynomial(f: HomogeneousPolynomial, g: HomogeneousPolynomial) -> HomogeneousPolynomial:
    top = mono_lcm(f.lead_monomial(), g.lead_monomial())
    mf = mono_quotient(top, f.lead_monomial())
    mg = mono_quotient(top, g.lead_monomial())
    return f.multiply_monomial(mf, 1 / f.lead_coefficient()) - g.multiply_monomial(
        mg, 1 / g.lead_coefficient()
    )


def _tuple_minimalize(gens):
    gens = sorted(set(gens), key=mono_degree)
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


def _tuple_support(m):
    return [i for i in range(NVARS) if m[i]]


def _tuple_pivot(gens, mixed):
    """(v, k, J : v^k) for the minimal generators gens of J, mixed those
    with more than one variable: v is the variable in most mixed generators,
    the first on ties, and k its least positive exponent in gens."""
    counts = [0] * NVARS
    for g in mixed:
        for i in _tuple_support(g):
            counts[i] += 1
    v = max(range(NVARS), key=counts.__getitem__)
    k = min(g[v] for g in gens if g[v])
    colon = tuple(g[:v] + (g[v] - k,) + g[v + 1:] if g[v] else g for g in gens)
    return v, k, colon


def _tuple_degree_basis(twists, degree):
    """Index map for the degree-e piece of (+) S(b): list of (slot, monomial)."""
    basis = []
    for slot, b in enumerate(twists):
        for m in monomials_of_degree(degree + b):
            basis.append((slot, m))
    return basis


def _tuple_element(vec, basis, twists, degree, den=1):
    """The element of (+) S(b) with coordinates vec / den over the
    degree-e basis, as a map from slot to homogeneous polynomial; the
    entries of vec are nonzero ints or Fractions, den a positive int."""
    slots = {}
    for ci, c in vec.items():
        slot, m = basis[ci]
        slots.setdefault(slot, {})[m] = c
    out = {}
    for slot, terms in slots.items():
        d, ints = integer_terms(terms)
        out[slot] = _from_integers(degree + twists[slot], d * den,
                                   {_pack(m): c for m, c in ints.items()})
    return out


def _cleared_vector(vec):
    """vec, a sparse vector of ints or Fractions, times the lcm of its
    denominators: the integer vector Echelon takes, of the same rank."""
    den = lcm(*(Fraction(x).denominator for x in vec.values()))
    return {i: int(x * den) for i, x in vec.items()}


def _fraction_kernel(columns):
    """The Fraction kernel vectors of sparse columns of ints or Fractions:
    kernel_of_columns of the columns cleared under one denominator, which
    keeps the kernel, each of its vectors ints / den read as Fractions."""
    den = lcm(*(Fraction(x).denominator for col in columns for x in col.values()))
    cleared = [{i: int(x * den) for i, x in col.items()} for col in columns]
    return [{i: Fraction(x, d) for i, x in ints.items()}
            for d, ints in kernel_of_columns(cleared)]


def _packed_numerator(gens):
    """The Hilbert numerator of the monomial ideal that the exponent tuples
    gens generate, by the packed recursion."""
    return groebner._minimal_numerator(groebner._minimalize(map(_pack, gens)))


def _packed_regularity_bound(gens):
    """The regularity bound of the monomial ideal that the exponent tuples
    gens generate, by the packed recursion."""
    return groebner._minimal_regularity_bound(groebner._minimalize(map(_pack, gens)))


def _ideal(*exprs):
    return GradedIdeal.from_expressions(exprs)


def test_buchberger_monomial_ideal_is_already_reduced():
    basis = _ideal(*SKEW).groebner_basis()
    assert sorted(str(g) for g in basis) == sorted(SKEW)


def test_buchberger_hand_traced_example():
    basis = _ideal("z0*z1 - z2*z3", "z0^2").groebner_basis()
    assert [str(g) for g in basis] == ["z0*z1 - z2*z3", "z0^2", "z0*z2*z3", "z2^2*z3^2"]


def test_buchberger_unit_ideal():
    basis = buchberger([HomogeneousPolynomial.constant(3)])
    assert [str(g) for g in basis] == ["1"]


def _independent_division(f, basis):
    """Plain multivariate division, written separately from normal_form."""
    work = dict(f.terms)
    remainder = {}
    pairs = [(g.lead_monomial(), g) for g in basis]
    while work:
        m = max(work, key=lambda mono: (sum(mono), tuple(-e for e in reversed(mono))))
        c = work.pop(m)
        for lm, g in pairs:
            if mono_divides(lm, m):
                factor = c / g.terms[lm]
                quotient = tuple(a - b for a, b in zip(m, lm))
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = tuple(a + b for a, b in zip(gm, quotient))
                    s = work.get(mm, 0) - factor * gc
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


def test_groebner_property_all_s_polynomials_reduce_to_zero():
    rng = Random(2)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(2, 3)):
            deg = rng.randint(1, 3)
            terms = {}
            for m in monomials_of_degree(deg):
                if rng.random() < 0.3:
                    terms[m] = rng.randint(-3, 3)
            p = HomogeneousPolynomial(deg, terms)
            if p:
                gens.append(p)
        if not gens:
            continue
        ideal = GradedIdeal(gens)
        basis = list(ideal.groebner_basis())
        if basis and basis[0].degree == 0:
            continue
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j])
                assert not _independent_division(s, basis)
        for g in gens:
            assert not _independent_division(g, basis)


def test_resource_limit_on_tiny_pair_cap():
    with pytest.raises(ResourceLimitError):
        buchberger([parse_polynomial("z0*z1 - z2*z3"), parse_polynomial("z0^2")],
                   pair_cap=0)


def _brute_quotient_dimension(gens, k):
    """Count degree-k monomials outside the span of monomial multiples."""
    from folcurves.linalg import Echelon

    index = {m: i for i, m in enumerate(monomials_of_degree(k))}
    ech = Echelon()
    for g in gens:
        for m in monomials_of_degree(k - g.degree):
            vec = {}
            for t, c in g.terms.items():
                mm = tuple(a + b for a, b in zip(t, m))
                vec[index[mm]] = vec.get(index[mm], 0) + c
            ech.insert(_cleared_vector({i: c for i, c in vec.items() if c}))
    return comb(k + 3, 3) - ech.rank


def test_hilbert_polynomial_line_skew_plane():
    line = _ideal("z0", "z1")
    assert str(line.hilbert_polynomial()) == "t + 1"
    skew = _ideal(*SKEW)
    assert str(skew.hilbert_polynomial()) == "2*t + 2"
    for k in range(0, 7):
        assert skew.hilbert_function(k) == _brute_quotient_dimension(skew.generators, k)
        if k >= 1:
            assert skew.hilbert_function(k) == 2 * k + 2
    plane = _ideal("z0")
    P = plane.hilbert_polynomial()
    assert [P(k) for k in range(5)] == [comb(k + 2, 2) for k in range(5)]


def test_hilbert_function_matches_lead_ideal_route_on_random_ideals():
    rng = Random(9)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            terms = {m: rng.randint(-3, 3) for m in monomials_of_degree(deg)
                     if rng.random() < 0.4}
            p = HomogeneousPolynomial(deg, {m: c for m, c in terms.items() if c})
            if p:
                gens.append(p)
        if not gens:
            continue
        ideal = GradedIdeal(gens)
        if ideal.is_unit_ideal():
            continue
        for k in range(0, 6):
            assert ideal.hilbert_function(k) == _brute_quotient_dimension(gens, k)


def test_curve_invariants():
    assert curve_invariants(_ideal(*SKEW)) == (2, -1)
    assert curve_invariants(_ideal("z0", "z1")) == (1, 0)
    with pytest.raises(NotACurveError):
        curve_invariants(_ideal("z0"))


def test_syzygies_koszul_and_zero():
    basis = graded_syzygies([parse_polynomial("z0"), parse_polynomial("z1")], [1, 1], 2)
    assert len(basis) == 1
    g1, g2 = basis[0]
    assert g1 * parse_polynomial("z0") + g2 * parse_polynomial("z1") == \
        HomogeneousPolynomial.zero(2)
    assert not graded_syzygies([parse_polynomial("z0")], [1], 4)


def test_syzygies_annihilate_symbolically_random():
    rng = Random(4)
    for _ in range(10):
        row = []
        weights = []
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(1, 2)
            terms = {m: rng.randint(-3, 3) for m in monomials_of_degree(deg)
                     if rng.random() < 0.5}
            p = HomogeneousPolynomial(deg, {m: c for m, c in terms.items() if c})
            if not p:
                continue
            row.append(p)
            weights.append(deg)
        if len(row) < 2:
            continue
        target = max(weights) + rng.randint(1, 2)
        for tup in graded_syzygies(row, weights, target):
            total = HomogeneousPolynomial.zero(target)
            for g, p in zip(tup, row):
                total = total + g * p
            assert total.is_zero()


def test_syzygies_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        graded_syzygies([parse_polynomial("z0^2")], [1], 3)


def test_resolution_koszul_line():
    res = minimal_free_resolution(_ideal("z0", "z1"))
    assert res.betti() == [[0, [0]], [1, [-1, -1]], [2, [-2]]]


def test_resolution_two_skew_lines():
    ideal = _ideal(*SKEW)
    res = minimal_free_resolution(ideal)
    assert res.betti() == [[0, [0]], [1, [-2] * 4], [2, [-3] * 4], [3, [-4]]]
    assert res.alternating_sum_ok(ideal.hilbert_function)
    assert res.composition_ok()
    assert res.is_minimal()


def test_resolution_complete_intersection_quadrics():
    ideal = _ideal("z0^2 + z1*z2 - z3^2", "z0*z1 + z2^2 - z0*z3")

    def count(n):
        return comb(n, 3) if n >= 3 else 0

    # regular sequence: the quotient dimensions must match the Koszul count
    for k in range(0, 9):
        expected = count(k + 3) - 2 * count(k + 1) + count(k - 1)
        assert ideal.hilbert_function(k) == expected
    res = minimal_free_resolution(ideal)
    assert res.betti() == [[0, [0]], [1, [-2, -2]], [2, [-4]]]


def test_resolution_maximal_ideal_has_length_four():
    res = minimal_free_resolution(_ideal("z0", "z1", "z2", "z3"))
    assert res.betti() == [[0, [0]], [1, [-1] * 4], [2, [-2] * 6], [3, [-3] * 4], [4, [-4]]]
    assert res.composition_ok() and res.is_minimal()


# four forms whose ideal is no curve's (Hilbert polynomial 6).  Layer 3's
# image check in degree 12, 170 columns over the 525 rows of F_2 there, took
# 87-98 s with its rows in degrevlex order and takes milliseconds with its
# sparsest rows pivoted first
FOUR_FORMS = [
    "3*z0^2*z2 - z0*z2^2 - z2*z3^2",
    "-z0^2*z2 - 3*z0*z1*z2 - z1^2*z3 + 3*z0*z2*z3 + z1*z2*z3 - z0*z3^2",
    "3*z0*z1^3 + 3*z1^3*z2 - z0^2*z2^2 + 2*z1^2*z2^2 + z1*z2^3 - 3*z0^2*z1*z3"
    " + z0^2*z2*z3 + 3*z1*z2^2*z3 - 2*z0*z3^3",
    "3*z1^3 + 2*z1^2*z2 - 3*z1*z2^2 + z2^3 + z1*z2*z3",
]


def test_resolution_of_four_forms_with_a_large_layer_3_image_check():
    ideal = _ideal(*FOUR_FORMS)
    res = minimal_free_resolution(ideal)
    assert res.betti() == [[0, [0]], [1, [-4, -3, -3, -3]],
                           [2, [-8, -8, -8, -7, -7, -7, -6, -6, -6]],
                           [3, [-10] + [-9] * 8], [4, [-12, -10, -10]]]
    assert res.composition_ok() and res.is_minimal()
    P = ideal.hilbert_polynomial()
    assert P.degree() == 0 and P(0) == 6


@pytest.mark.parametrize("gens, where", [
    (["z0^2 + z1*z2 - z3^2", "z0*z1 + z2^2 - z0*z3"], "layer 2, degree 4"),
    (SKEW, "layer 1, degree 2"),
], ids=["quadrics", "skew-lines"])
def test_resolution_safety_margin_fires_on_an_underestimated_bound(monkeypatch, gens, where):
    true_bound = GradedIdeal.regularity_bound
    monkeypatch.setattr(GradedIdeal, "regularity_bound", lambda self: true_bound(self) - 1)
    with pytest.raises(ResourceLimitError, match=f"^{where}: .*safety margin degree"):
        minimal_free_resolution(_ideal(*gens))


def test_resolution_rejects_the_unit_ideal():
    with pytest.raises(ValueError):
        minimal_free_resolution(_ideal("1"))


def test_rao_two_skew_lines():
    profile = rao_module_dimensions(_ideal(*SKEW))
    assert profile.profile == {0: 1}
    assert profile.total == 1
    assert profile.to_json() == {"profile": {"0": 1}, "total": 1}


def test_rao_complete_intersection_is_empty():
    ideal = _ideal("z0^2 + z1*z2 - z3^2", "z0*z1 + z2^2 - z0*z3")
    assert rao_module_dimensions(ideal).total == 0


def test_rao_invariance_under_redundant_generator():
    base = _ideal(*SKEW)
    redundant = GradedIdeal(
        list(base.generators) + [parse_polynomial("z1*z3^3") * base.generators[0]]
    )
    assert rao_module_dimensions(base).profile == rao_module_dimensions(redundant).profile


def test_rao_window_too_small():
    with pytest.raises(WindowTooSmallError):
        rao_module_dimensions(_ideal(*SKEW), window=(0, 5))


def test_legendrian_degree_7_takes_its_one_new_syzygy_on_the_free_columns():
    """Layer 1 of the legendrian sample of degree 7 stops at degree 8, so
    layer 2 takes the kernel of d_1 in degree 14 itself.  It takes it on
    the free columns only, where it has one vector, the generator of
    twist -14, instead of the whole 190-dimensional kernel."""
    ideal = legendrian_sample(7, Random(0)).ideal
    res = minimal_free_resolution(ideal)
    assert res.betti() == [[0, [0]], [1, [-8] * 5], [2, [-14, -9, -9, -9, -9]], [3, [-10]]]
    assert rao_module_dimensions(ideal).profile == {6: 1}
    _assert_minimal_free_resolution(ideal, res)


def test_the_resolution_is_kept_on_the_ideal(monkeypatch):
    """rao_module_dimensions after minimal_free_resolution takes no kernel:
    the resolution is not computed again.  A call that raises keeps
    nothing, so the next call resolves."""
    real = resolution.kernel_of_columns
    calls = []
    monkeypatch.setattr(resolution, "kernel_of_columns",
                        lambda columns, ech=None: calls.append(len(columns)) or real(columns, ech))
    ideal = legendrian_sample(3, Random(0)).ideal
    res = minimal_free_resolution(ideal)
    assert calls
    calls.clear()
    profile = rao_module_dimensions(ideal)
    assert calls == [] and minimal_free_resolution(ideal) is res
    assert profile == rao_module_dimensions(GradedIdeal(ideal.generators))
    assert calls

    def refuse(columns, ech=None):
        raise ResourceLimitError("refused")

    ideal = _ideal(*SKEW)
    monkeypatch.setattr(resolution, "kernel_of_columns", refuse)
    with pytest.raises(ResourceLimitError, match="^refused$"):
        minimal_free_resolution(ideal)
    assert ideal._resolution is None
    monkeypatch.setattr(resolution, "kernel_of_columns", real)
    assert minimal_free_resolution(ideal).betti() == minimal_free_resolution(_ideal(*SKEW)).betti()


def test_rao_requires_a_curve():
    with pytest.raises(NotACurveError):
        rao_module_dimensions(_ideal("z0"))


def test_ideal_file_round_trip(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("# two skew lines\nz0*z2\nz0*z3\nz1*z2  # tail comment\nz1*z3\n")
    ideal = GradedIdeal.from_file(path)
    assert curve_invariants(ideal) == (2, -1)


def test_normal_form_membership():
    ideal = _ideal(*SKEW)
    basis = list(ideal.groebner_basis())
    f = parse_polynomial("z0*z2*z3 + z1*z3*z2")
    assert normal_form(f, basis).is_zero()
    g = parse_polynomial("z0*z1")
    assert not normal_form(g, basis).is_zero()


def _loop_minimal_free_resolution(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I, complete in degrees <= bound."""
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    maxdeg = ideal.max_generator_degree()
    regb = ideal.regularity_bound()
    bound = regb + 6
    if bound > 60:
        raise ResourceLimitError(f"truncation bound {bound} is too large")

    gb = list(ideal.groebner_basis())
    lead_gens = ideal.lead_ideal()
    if not lead_gens:
        return FreeResolution(twists=[[0]], differentials=[], bound=bound)

    def lt_monomials(e):
        return [m for m in monomials_of_degree(e)
                if any(mono_divides(g, m) for g in lead_gens)]

    def reduced_element(m):
        lead = HomogeneousPolynomial.from_term(m)
        return lead - normal_form(lead, gb)

    # layer 1: minimal generators of I
    gens1 = []
    cap1 = min(bound, maxdeg)
    for e in range(1, cap1 + 1):
        monos_e = lt_monomials(e)
        if not monos_e:
            continue
        index = {m: i for i, m in enumerate(monomials_of_degree(e))}
        ech = Echelon()
        for m_prev in lt_monomials(e - 1):
            b = reduced_element(m_prev)
            for v in range(NVARS):
                mv = tuple(1 if i == v else 0 for i in range(NVARS))
                shifted = b.multiply_monomial(mv)
                ech.insert(_cleared_vector({index[mm]: c for mm, c in shifted.terms.items()}))
        for m in monos_e:
            f = reduced_element(m)
            if ech.insert(_cleared_vector({index[mm]: c for mm, c in f.terms.items()})) is not None:
                gens1.append((e, f))
        if ech.rank != len(monos_e):
            raise ResourceLimitError("layer-1 dimension audit failed")

    twists = [[0], [-e for e, _ in gens1]]
    differentials = [[{0: f} for _, f in gens1]]

    # higher layers: kernels of the previous differential, degree by degree
    layer = 2
    while layer <= 5:
        prev_twists = twists[layer - 1]
        below_twists = twists[layer - 2]
        prev_cols = differentials[layer - 2]
        if not prev_twists:
            break
        cap = min(bound, regb + layer + 1)
        start = min(-b for b in prev_twists)
        new_gens = []  # (degree, column over F_{layer-1} slots)
        prev_kernel = []
        prev_col_meta = []
        for e in range(start, cap + 1):
            col_meta = _tuple_degree_basis(prev_twists, e)
            col_index = {key: i for i, key in enumerate(col_meta)}
            row_meta = _tuple_degree_basis(below_twists, e)
            row_index = {key: i for i, key in enumerate(row_meta)}
            columns = []
            for slot, m in col_meta:
                vec = {}
                for target, poly in prev_cols[slot].items():
                    for pm, pc in poly.terms.items():
                        vec[row_index[(target, mono_mul(pm, m))]] = pc
                columns.append(vec)
            kernel = _fraction_kernel(columns)
            ech_old = Echelon()
            for z in prev_kernel:
                for v in range(NVARS):
                    mv = tuple(1 if i == v else 0 for i in range(NVARS))
                    shifted = {}
                    for ci, c in z.items():
                        slot, m = prev_col_meta[ci]
                        shifted[col_index[(slot, mono_mul(m, mv))]] = c
                    ech_old.insert(_cleared_vector(shifted))
            for z in kernel:
                if ech_old.insert(_cleared_vector(z)) is None:
                    continue
                if e == cap and cap == regb + layer + 1:
                    raise ResourceLimitError(
                        "resolution generator found at the safety margin degree"
                    )
                column = {}
                for ci, c in z.items():
                    slot, m = col_meta[ci]
                    column.setdefault(slot, {})[m] = c
                new_gens.append(
                    (e, {slot: HomogeneousPolynomial(e + prev_twists[slot], terms)
                         for slot, terms in column.items()})
                )
            prev_kernel = kernel
            prev_col_meta = col_meta
        if not new_gens:
            break
        twists.append([-e for e, _ in new_gens])
        differentials.append([col for _, col in new_gens])
        layer += 1
    if layer > 5:
        raise ResourceLimitError("resolution did not terminate at length 4")

    resolution = FreeResolution(twists=twists, differentials=differentials, bound=bound)
    if not resolution.alternating_sum_ok(ideal.hilbert_function):
        raise ResourceLimitError("resolution dimension audit failed")
    return resolution


def _random_ideals(rng, draws):
    """The non-unit ideals among draws of up to 4 sparse generators of
    degree <= 3."""
    for _ in range(draws):
        gens = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            terms = {m: rng.randint(-3, 3) for m in monomials_of_degree(deg)
                     if rng.random() < 0.3}
            p = HomogeneousPolynomial(deg, {m: c for m, c in terms.items() if c})
            if p:
                gens.append(p)
        ideal = GradedIdeal(gens)
        if gens and not ideal.is_unit_ideal():
            yield ideal


def test_hilbert_data_from_the_elements_equals_that_from_the_reduced_basis():
    ideals = list(_random_ideals(Random(5), 40))
    assert len(ideals) >= 30
    # the zero, empty and unit ideals
    ideals += [_ideal("0*z0"), GradedIdeal([]), _ideal("3"), _ideal("z0^2", "2/3", "z1")]
    for ideal in ideals:
        gb = buchberger(ideal.generators)
        lead = _tuple_minimalize(tuple(g.lead_monomial() for g in gb))
        assert ideal.lead_ideal() == lead
        assert ideal.is_unit_ideal() == (bool(gb) and gb[0].degree == 0)
        assert ideal.hilbert_numerator() == dict(_packed_numerator(lead))
        assert ideal._gb is None  # none of these built the reduced basis
        assert ideal.groebner_basis() == tuple(gb)


def test_division_by_the_elements_gives_the_normal_form_of_the_reduced_basis():
    """Layer 1 of the resolution divides by the unreduced elements; the
    normal form, its Fractions and its term order are those of normal_form
    on the reduced basis."""
    cases = 0
    for ideal in _random_ideals(Random(6), 30):
        elements, gb = ideal._basis_elements(), list(ideal.groebner_basis())
        for e in range(1, 5):
            for m in monomials_of_degree(e):
                r, mult = groebner._divide({_pack(m): 1}, elements)
                mine = [(_unpack(rm), Fraction(c, mult)) for rm, c in r.items()]
                nf = normal_form(HomogeneousPolynomial.from_term(m), gb)
                assert mine == list(nf.terms.items())
                cases += bool(mine)
    assert cases > 500


def test_hilbert_and_resolution_never_build_the_reduced_basis(monkeypatch, tmp_path, capsys):
    def refuse(basis):
        raise AssertionError("the reduced basis was built")

    monkeypatch.setattr(groebner, "_reduced_basis", refuse)
    path = tmp_path / "twisted.ideal"
    path.write_text("z0*z2 - z1^2\nz1*z3 - z2^2\nz0*z3 - z1*z2\n")
    assert cli.main(["hilbert", str(path)]) == 0
    assert capsys.readouterr().out == (
        "Hilbert polynomial: 3*t + 1\ncurve invariants: degree 3, genus 0\n")
    assert cli.main(["rao", str(path), "--json"]) == 0
    assert '"total": 0' in capsys.readouterr().out


def test_hilbert_polynomial_is_computed_once_per_ideal(monkeypatch, tmp_path, capsys):
    """GradedIdeal keeps its Hilbert polynomial: a hilbert query and a
    wedge --invariants --rao query each build one, though both read it
    twice (directly and through curve_invariants)."""
    built = []
    real = groebner.HilbertPolynomial.__init__

    def record(self, binomial_coeffs):
        built.append(list(binomial_coeffs))
        real(self, built[-1])

    monkeypatch.setattr(groebner.HilbertPolynomial, "__init__", record)
    path = tmp_path / "twisted.ideal"
    path.write_text("z0*z2 - z1^2\nz1*z3 - z2^2\nz0*z3 - z1*z2\n")
    assert cli.main(["hilbert", str(path)]) == 0
    assert capsys.readouterr().out == (
        "Hilbert polynomial: 3*t + 1\ncurve invariants: degree 3, genus 0\n")
    assert len(built) == 1
    built.clear()
    contact = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"
    omega = "z2*dz0 - z0*dz2 + z3*dz1 - z1*dz3"
    assert cli.main(["wedge", contact, omega, "--invariants", "--rao", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["invariants"]
    assert len(built) == 1
    ideal = _ideal("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2")
    assert ideal.hilbert_polynomial() is ideal.hilbert_polynomial()
    with pytest.raises(ValueError):
        _ideal("z0", "1").hilbert_polynomial()


def test_hilbert_formats_its_polynomial_once_from_kept_power_coefficients(
        monkeypatch, tmp_path, capsys):
    """A hilbert query formats the polynomial once, under --json too, and
    the power coefficients it keeps are those a polynomial rebuilt from the
    binomial coefficients alone gives."""
    formatted = []
    real = groebner.HilbertPolynomial.__str__
    monkeypatch.setattr(groebner.HilbertPolynomial, "__str__",
                        lambda self: formatted.append(1) or real(self))
    path = tmp_path / "twisted.ideal"
    path.write_text("z0*z2 - z1^2\nz1*z3 - z2^2\nz0*z3 - z1*z2\n")
    for argv in (["hilbert", str(path)], ["hilbert", str(path), "--json"]):
        assert cli.main(argv) == 0
        assert "3*t + 1" in capsys.readouterr().out
        assert len(formatted) == 1
        formatted.clear()
    for ideal in _random_ideals(Random(45), 30):
        P = ideal.hilbert_polynomial()
        fresh = groebner.HilbertPolynomial(P.coeffs)
        assert P.power_coeffs() == fresh.power_coeffs()
        assert str(P) == real(fresh)


# The former HilbertPolynomial, which computed in Fractions, kept verbatim
# as the oracle of the integer one: _binomial_poly, the class and
# _binom_ext, renamed.


@lru_cache(maxsize=None)
def _former_binomial_poly(i: int) -> tuple:
    """Power-basis coefficients of C(t+i, i)."""
    coeffs = [Fraction(1)]
    for j in range(1, i + 1):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * j
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(c / factorial(i) for c in coeffs)


class _FormerHilbertPolynomial:
    """Polynomial in t stored in the binomial basis C(t+i, i), whose
    coefficients are integers for every Hilbert polynomial; its power
    coefficients are kept once known."""

    __slots__ = ("coeffs", "_power")

    def __init__(self, binomial_coeffs):
        coeffs = list(binomial_coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self._power = None

    def power_coeffs(self):
        if self._power is None:
            out = [Fraction(0)] * max(len(self.coeffs), 1)
            for i, b in enumerate(self.coeffs):
                for k, c in enumerate(_former_binomial_poly(i)):
                    out[k] += b * c
            self._power = tuple(out)
        return list(self._power)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.power_coeffs()[-1]

    def __call__(self, t: int) -> Fraction:
        total = Fraction(0)
        for i, b in enumerate(self.coeffs):
            total += b * _former_binom_ext(t + i, i)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, _FormerHilbertPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        power = self.power_coeffs()
        parts = []
        for k in range(len(power) - 1, -1, -1):
            c = power[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        return polyring._signed_sum(parts)

    def __repr__(self):
        return f"HilbertPolynomial({self})"


def _former_binom_ext(n: int, k: int) -> Fraction:
    """Polynomial extension of C(n, k) to negative n."""
    num = 1
    for j in range(k):
        num *= n - j
    return Fraction(num, factorial(k))


def _binomial_tuples(rng, count):
    """Chosen and seeded binomial coefficient tuples of length 0..4: zeros,
    trailing zeros, signs and large values."""
    chosen = [(), (0,), (0, 0, 0, 0), (1,), (-1,), (0, 1), (-2, 3), (0, 0, 1), (0, -1, 2),
              (12,), (-9, 6), (1, 0, -1, 0), (5, -7, 0, 1), (0, 0, 0, -1), (10 ** 30, -1)]
    drawn = [tuple(rng.choice((rng.randint(-6, 6), rng.randint(-10 ** 6, 10 ** 6)))
                   for _ in range(rng.randint(0, 4))) for _ in range(count)]
    return chosen + drawn


def test_hilbert_polynomial_matches_the_former_fraction_class():
    """The integer HilbertPolynomial gives the former class's power
    coefficients, leading coefficient and values (all Fractions), string,
    degree, equality and hash, and refuses a fifth binomial coefficient."""
    tuples = _binomial_tuples(Random(47), 400)
    for coeffs in tuples:
        new, old = groebner.HilbertPolynomial(coeffs), _FormerHilbertPolynomial(coeffs)
        assert new.coeffs == old.coeffs and new.degree() == old.degree()
        power = new.power_coeffs()
        assert power == old.power_coeffs() and all(type(c) is Fraction for c in power)
        lead = new.leading_coefficient()
        assert lead == old.leading_coefficient() and type(lead) is Fraction
        values = [new(t) for t in range(-20, 21)]
        assert values == [old(t) for t in range(-20, 21)]
        assert all(type(v) is Fraction for v in values)
        assert str(new) == str(old) and repr(new) == repr(old)
        assert hash(new) == hash(old)
    pairs = Random(48)
    for _ in range(400):
        a, b = pairs.choice(tuples), pairs.choice(tuples)
        assert (groebner.HilbertPolynomial(a) == groebner.HilbertPolynomial(b)) == (
            _FormerHilbertPolynomial(a) == _FormerHilbertPolynomial(b))
    assert groebner.HilbertPolynomial((-2, 3)) == groebner.HilbertPolynomial([-2, 3, 0, 0, 0])
    for five in ((1, 2, 3, 4, 5), (0, 0, 0, 0, -1), (1, 0, 0, 0, 1, 0)):
        with pytest.raises(ValueError, match="degree at most 3"):
            groebner.HilbertPolynomial(five)


# The Hilbert polynomial's former route: six times its power coefficients
# from the numerator in ints, then the binomial coefficients from those in
# Fractions.  _former_from_power_coeffs is the former
# HilbertPolynomial.from_power_coeffs, returning its binomial and kept power
# coefficients instead of a polynomial.


@lru_cache(maxsize=None)
def _shifted_cubic(a: int) -> tuple:
    """Power-basis coefficients of 6 * C(t - a + 3, 3), ints."""
    coeffs = [1]
    for j in (1, 2, 3):
        shift = j - a
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * shift
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def _former_from_power_coeffs(power):
    power = [Fraction(c) for c in power]
    while power and power[-1] == 0:
        power.pop()
    kept = tuple(power) or (Fraction(0),)
    binom = []
    for i in range(len(power) - 1, -1, -1):
        b = power[i] * factorial(i)
        base = _former_binomial_poly(i)
        for k in range(i + 1):
            power[k] -= b * base[k]
        binom.append(b)
    binom.reverse()
    return binom, kept


def _former_hilbert_coefficients(num):
    """The binomial and power coefficients of the former route."""
    power = [0] * 4  # six times the power coefficients, in ints
    for a, c in num.items():
        shifted = _shifted_cubic(a)
        for k in range(4):
            power[k] += c * shifted[k]
    return _former_from_power_coeffs([Fraction(p, 6) for p in power])


def test_hilbert_polynomial_from_the_numerator_matches_the_former_route():
    """Integer binomial coefficients straight from the numerator equal those
    of the power-basis round trip, and so do the power coefficients, on the
    whole hilbert pool and on 400 seeded random ideals."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                       / "hilbert_pool.json").read_text())["ideals"]
    draws = Random(46)
    ideals = ([_ideal(*entry["text"].splitlines()) for entry in pool]
              + [verification._random_ideal(draws) for _ in range(400)])
    degrees = set()
    for ideal in ideals:
        P = ideal.hilbert_polynomial()
        binom, power = _former_hilbert_coefficients(ideal.hilbert_numerator())
        assert all(type(b) is int for b in P.coeffs)
        assert list(P.coeffs) == binom
        assert P.power_coeffs() == list(power)
        degrees.add(P.degree())
    assert len(pool) == 240 and degrees >= {0, 1}


def test_resolution_matches_the_former_loop_on_random_ideals():
    """Betti tables equal those of the former loop, which computed the full
    kernel in every degree (kept above as the oracle)."""
    lengths = set()
    for ideal in _random_ideals(Random(3), 60):
        res = minimal_free_resolution(ideal)
        assert res.betti() == _loop_minimal_free_resolution(ideal).betti()
        assert res.composition_ok() and res.is_minimal()
        assert res.alternating_sum_ok(ideal.hilbert_function)
        lengths.add(res.length())
    assert lengths == {1, 2, 3, 4}


def _former_composition_ok(self) -> bool:
    for i in range(1, len(self.differentials)):
        lower = self.differentials[i - 1]
        for column in self.differentials[i]:
            acc = {}
            for slot, poly in column.items():
                for target, entry in lower[slot].items():
                    prod = poly * entry
                    cur = acc.get(target)
                    total = prod if cur is None else cur + prod
                    acc[target] = total
            if any(not p.is_zero() for p in acc.values()):
                return False
    return True


def _former_dual_map_rank(twists_dom, twists_cod, columns, k: int) -> int:
    """Rank of the dual of d : F_cod -> F_dom in dual degree -k.

    Domain basis: (slot j of F_dom, monomial of degree -b_j - 4 - k); the
    dual map multiplies by the transposed polynomial entries.
    """
    image_index = {}
    for l, b in enumerate(twists_cod):
        for m in monomials_of_degree(-b - 4 - k):
            image_index[(l, m)] = len(image_index)
    if not image_index:
        return 0
    ech = Echelon()
    for j, b in enumerate(twists_dom):
        for m in monomials_of_degree(-b - 4 - k):
            vec = {}
            for l, column in enumerate(columns):
                poly = column.get(j)
                if poly is None:
                    continue
                for pm, pc in poly.terms.items():
                    vec[image_index[(l, mono_mul(pm, m))]] = (
                        vec.get(image_index[(l, mono_mul(pm, m))], 0) + pc
                    )
            ech.insert(_cleared_vector({c: v for c, v in vec.items() if v}))
    return ech.rank


def test_composition_and_dual_ranks_match_the_former_code():
    """On random resolutions, intact and with one entry perturbed, the
    composition check and the dual ranks in the top degrees agree with the
    former code (kept above as the oracle)."""
    rng = Random(5)
    broken = ranks = 0
    for ideal in _random_ideals(rng, 40):
        res = minimal_free_resolution(ideal)
        assert res.composition_ok() and _former_composition_ok(res)
        if res.length() >= 2:
            # add a nonzero polynomial of the right degree to one entry of d_i
            i = rng.randrange(1, res.length())
            column = rng.choice(res.differentials[i])
            slot, poly = rng.choice(sorted(column.items()))
            extra = HomogeneousPolynomial.from_term(monomials_of_degree(poly.degree)[-1])
            column[slot] = poly + extra
            assert res.composition_ok() == _former_composition_ok(res)
            broken += not res.composition_ok()
            column[slot] = poly
        for lo_layer in range(1, res.length()):
            dom, cod = res.twists[lo_layer], res.twists[lo_layer + 1]
            columns = res.differentials[lo_layer]
            top = max(-b - 4 for b in dom)  # the dual's domain is zero above it
            for k in range(top - 3, top + 2):
                assert _dual_map_rank(dom, cod, columns, k) == _former_dual_map_rank(
                    dom, cod, columns, k)
                ranks += 1
    assert broken >= 20 and ranks >= 200


# The former Fraction-based division, autoreduction and Buchberger loop,
# kept as the oracle for the fraction-free code that replaced them.


def _former_normal_form(f: HomogeneousPolynomial, basis) -> HomogeneousPolynomial:
    """Remainder of f under division by a list of nonzero polynomials."""
    table = [(g.lead_monomial(), g.lead_coefficient(), g) for g in basis if g]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=degrevlex_key)
        c = work.pop(m)
        for lm, lc, g in table:
            if mono_divides(lm, m):
                q = mono_quotient(m, lm)
                factor = c / lc
                # kept inline: hilbert's hot loop, and max(work) must never see a zero
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = mono_mul(gm, q)
                    s = work.get(mm, 0) - factor * gc
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return HomogeneousPolynomial(f.degree, remainder)


def _former_interreduce(basis):
    """Autoreduced basis: monic, no term reducible by another element's lead.

    Remainders of dropped elements are kept (they carry new lead terms), so
    no ideal content is lost; the loop runs until the set is stable.
    """
    current = [g.monic() for g in basis if g]
    while True:
        current.sort(key=lambda g: degrevlex_key(g.lead_monomial()))
        result = []
        changed = False
        for i, g in enumerate(current):
            others = result + current[i + 1:]
            r = _former_normal_form(g, others) if others else g
            if not r:
                changed = True
                continue
            r = r.monic()
            if r != g:
                changed = True
            result.append(r)
        current = result
        if not changed:
            return current


def _former_buchberger(generators, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None):
    """Reduced degrevlex Groebner basis.

    Pairs are processed in normal strategy order (lowest lcm first) with the
    product and chain criteria.  Raises ResourceLimitError when more than
    pair_cap pairs are processed or an S-polynomial exceeds degree_cap.
    """
    basis = _former_interreduce(list(generators))
    if not basis:
        return []
    if basis[0].degree == 0:
        return [HomogeneousPolynomial.constant(1)]

    lead = [g.lead_monomial() for g in basis]
    pending = set()
    for i in range(len(basis)):
        for j in range(i):
            pending.add((j, i))

    def pair_key(pair):
        lcm = mono_lcm(lead[pair[0]], lead[pair[1]])
        return (mono_degree(lcm),) + tuple(degrevlex_key(lcm)[1:]) + pair

    processed = 0
    while pending:
        pair = min(pending, key=pair_key)
        pending.discard(pair)
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(f"pair cap {pair_cap} exceeded")
        i, j = pair
        if mono_coprime(lead[i], lead[j]):
            continue
        lcm = mono_lcm(lead[i], lead[j])
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lead[k], lcm):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                chained = True
                break
        if chained:
            continue
        spoly = s_polynomial(basis[i], basis[j])
        if degree_cap is not None and spoly.degree > degree_cap:
            raise ResourceLimitError(f"degree cap {degree_cap} exceeded")
        r = _former_normal_form(spoly, basis)
        if not r:
            continue
        r = r.monic()
        basis.append(r)
        lead.append(r.lead_monomial())
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
    return _former_interreduce(basis)


def _random_generators(rng):
    """One to four sparse generators of degree 1 to 3 with small integer or
    rational coefficients, then now and then a zero, an exact or scaled
    duplicate, or a constant."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(1, 3)
        gens.append(HomogeneousPolynomial(deg, {
            m: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            for m in monomials_of_degree(deg) if rng.random() < 0.3}))
    roll = rng.random()
    if roll < 0.15:
        gens.append(HomogeneousPolynomial.zero(rng.randint(0, 3)))
    elif roll < 0.3:
        gens.append(rng.choice(gens))
    elif roll < 0.45:
        gens.append(rng.choice(gens).scale(Fraction(rng.choice((-2, 3)), rng.choice((1, 5)))))
    elif roll < 0.5:
        gens.append(HomogeneousPolynomial.constant(Fraction(2, 3)))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("exprs", [
    ["2/3*z0^2", "z0*z1 - 1/2*z2^2", "3/4*z1*z3 + z2^2"],
    ["z0*z1 - z2*z3", "z0*z1 - z2*z3", "z0^2"],
    ["z0*z1 - z2*z3", "-5/3*z0*z1 + 5/3*z2*z3", "z1^2"],
    ["z0 + 2*z1", "z1 - 1/3*z2", "z0*z3 - z2^2"],
    ["z0 - z1", "z0", "z1"],
    ["z0^2", "7/2", "z1*z2"],
    ["z0", "z1", "z2", "z3"],
    ["z0^3", "z1^3", "z2^3", "z3^3", "z0*z1*z2*z3"],
], ids=["rational", "duplicate", "scaled-duplicate", "linear", "dependent-linear",
        "constant", "maximal", "m-primary"])
def test_buchberger_matches_the_former_code_on_chosen_ideals(exprs):
    gens = [parse_polynomial(e) for e in exprs]
    assert buchberger(gens) == _former_buchberger(gens)
    assert buchberger(gens + [HomogeneousPolynomial.zero(2)]) == _former_buchberger(gens)


def test_buchberger_matches_the_former_code_on_random_ideals():
    """Same reduced bases, in the same order, with the same Fractions.  A
    homogeneous ideal is the unit ideal only through a constant generator:
    S-polynomials of positive-degree forms have positive degree."""
    rng = Random(12)
    units = sizes = 0
    for _ in range(200):
        gens = _random_generators(rng)
        new = buchberger(gens)
        old = _former_buchberger(gens)
        assert new == old
        assert all(isinstance(c, Fraction) for g in new for c in g.terms.values())
        units += new == [HomogeneousPolynomial.constant(1)]
        sizes = max(sizes, len(new))
    assert buchberger([]) == _former_buchberger([]) == []
    assert buchberger([HomogeneousPolynomial.zero(3)]) == []
    assert units >= 5 and sizes >= 8


def test_normal_form_matches_the_former_code():
    rng = Random(13)
    cases = 0
    for _ in range(120):
        gens = _random_generators(rng)
        bases = [gens, list(buchberger(gens)), []]
        deg = rng.randint(0, 4)
        fs = [HomogeneousPolynomial.zero(deg), HomogeneousPolynomial(deg, {
            m: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 7)))
            for m in monomials_of_degree(deg) if rng.random() < 0.5})]
        for basis in bases:
            for f in fs:
                assert normal_form(f, basis) == _former_normal_form(f, basis)
                cases += 1
    assert cases == 720


def _fits(run, gens, cap):
    try:
        run(gens, pair_cap=cap)
    except ResourceLimitError:
        return False
    return True


def _smallest_pair_cap(run, gens):
    """The fewest pairs run(gens) needs, by bisection on pair_cap."""
    lo, hi = 0, 1
    while not _fits(run, gens, hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if _fits(run, gens, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_buchberger_processes_as_many_pairs_as_the_former_code():
    rng = Random(15)
    cases = [_random_generators(rng) for _ in range(40)]
    needed = [_smallest_pair_cap(buchberger, gens) for gens in cases]
    assert needed == [_smallest_pair_cap(_former_buchberger, gens) for gens in cases]
    assert max(needed) >= 10


def _dense_form(rng, deg):
    """A form with every monomial of degree deg and a nonzero coefficient."""
    return HomogeneousPolynomial(deg, {
        m: Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.choice((1, 1, 2, 3)))
        for m in monomials_of_degree(deg)})


# degrees of seeded dense forms, generic enough to be complete intersections
DENSE_CI_DEGREES = [(2, 2), (2, 4), (3, 4), (4, 4), (2, 2, 2), (2, 3, 3), (2, 3, 4),
                    (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3)]


def _dense_complete_intersections():
    rng = Random(16)
    return [[_dense_form(rng, d) for d in degrees] for degrees in DENSE_CI_DEGREES]


def _degenerate_ideals():
    """Ideals of at most four generators where the bound is loose or the
    generators are redundant."""
    rng = Random(17)
    f, g, h = _dense_form(rng, 2), _dense_form(rng, 3), _dense_form(rng, 3)
    z0 = HomogeneousPolynomial.variable(0)
    return {
        "common-linear-factor": [z0 * f, z0 * g, z0 * h],
        "duplicate": [f, g, f],
        "scaled-duplicate": [f, g, h, f.scale(Fraction(-5, 3))],
        "m-primary": [parse_polynomial(e) for e in
                      ("z0^2 + z1*z3", "z1^2 + z2*z3", "z2^2 + z0*z3 - z1^2", "z3^3 - z0*z1*z2")],
    }


def _count_s_polynomials(monkeypatch, gens):
    """buchberger(gens) and the number of S-polynomials it divides."""
    calls = []
    real = groebner._s_polynomial_terms
    with monkeypatch.context() as m:
        m.setattr(groebner, "_s_polynomial_terms", lambda e, f: calls.append(1) or real(e, f))
        return buchberger(gens), len(calls)


def _assert_same_as_the_former_code(gens):
    """Equal reduced bases, and the former code needs exactly as many pairs."""
    needed = _smallest_pair_cap(buchberger, gens)
    assert buchberger(gens) == _former_buchberger(gens, pair_cap=needed)
    assert needed == 0 or not _fits(_former_buchberger, gens, needed - 1)


def test_hilbert_skip_divides_fewer_s_polynomials_on_complete_intersections(monkeypatch):
    for gens in _dense_complete_intersections():
        _assert_same_as_the_former_code(gens)
        basis, divided = _count_s_polynomials(monkeypatch, gens)
        with monkeypatch.context() as m:
            m.setattr(groebner, "_ci_hilbert_function", lambda numerator, d: -1)  # never met
            unskipped_basis, unskipped = _count_s_polynomials(m, gens)
        assert unskipped_basis == basis
        assert divided < unskipped, [g.degree for g in gens]


@pytest.mark.parametrize("name", list(_degenerate_ideals()))
def test_hilbert_skip_keeps_degenerate_ideals_exact(name):
    gens = _degenerate_ideals()[name]
    _assert_same_as_the_former_code(gens)
    _assert_same_as_the_former_code(gens + [HomogeneousPolynomial.zero(3)])


def test_hilbert_skip_needs_at_most_four_generators(monkeypatch):
    """Five nonzero generators, even when one is redundant, never consult
    the bound: for five forms it would be Froeberg's conjecture."""
    def refuse(numerator, d):
        raise AssertionError("the bound was consulted")

    monkeypatch.setattr(groebner, "_ci_hilbert_function", refuse)
    rng = Random(18)
    quadrics = [_dense_form(rng, 2) for _ in range(5)]
    for gens in (quadrics, quadrics[:4] + [quadrics[0].scale(3)],
                 [parse_polynomial(e) for e in ("z0^3", "z1^3", "z2^3", "z3^3 - z0*z1*z2",
                                                "z0*z1*z2*z3")]):
        _assert_same_as_the_former_code(gens)


def test_hilbert_skip_gives_up_a_long_walk(monkeypatch):
    """A pair of huge degree drops the skip instead of walking through every
    degree below it, and a dropped skip leaves the basis exact."""
    steps = []
    real = groebner._next_standard
    monkeypatch.setattr(groebner, "_next_standard",
                        lambda standard, leads: steps.append(1) or real(standard, leads))
    gens = [parse_polynomial("z0*z1"), parse_polynomial("z1^100000000")]
    assert buchberger(gens) == _former_buchberger(gens)
    assert 0 < len(steps) < 100
    monkeypatch.setattr(groebner, "MAX_STANDARD_WALK", 0)
    for gens in _dense_complete_intersections()[:6]:
        assert buchberger(gens) == _former_buchberger(gens)


def _ci_values(degrees, top):
    """The complete-intersection count in degrees 0..top - 1."""
    numerator = groebner._ci_numerator(degrees)
    return [groebner._ci_hilbert_function(numerator, d) for d in range(top)]


def test_ci_hilbert_function_bounds_the_hilbert_function():
    """dim (S/I)_d >= the complete-intersection count for at most four
    nonzero generators, with equality in every degree on generic ones."""
    rng = Random(19)
    checked = 0
    for _ in range(80):
        gens = [g for g in _random_generators(rng) if g]
        if not gens or len(gens) > 4:
            continue
        ideal = GradedIdeal(gens)
        degrees = [g.degree for g in gens]
        for d, bound in enumerate(_ci_values(degrees, max(degrees) + 7)):
            assert ideal.hilbert_function(d) >= bound
        checked += 1
    assert checked >= 60
    for gens in _dense_complete_intersections():
        ideal = GradedIdeal(gens)
        degrees = [g.degree for g in gens]
        values = [ideal.hilbert_function(d) for d in range(max(degrees) + 7)]
        assert values == _ci_values(degrees, max(degrees) + 7)
    assert _ci_values((2, 3), 6) == [1, 4, 9, 15, 21, 27]
    assert _ci_values((2, 2, 2, 2), 6) == [1, 4, 6, 4, 1, 0]


def test_ci_numerator_keeps_only_nonzero_coefficients():
    """(1-t)^2 (1-t^2) = 1 - 2t + 2t^3 - t^4 has no t^2 term, and neither
    has hilbert_numerator of a complete intersection of those degrees."""
    assert groebner._ci_numerator((1, 1, 2)) == {0: 1, 1: -2, 3: 2, 4: -1}
    assert groebner._ci_numerator(()) == {0: 1}
    assert _ideal("z0", "z1", "z2^2").hilbert_numerator() == groebner._ci_numerator((2, 1, 1))


def test_buchberger_errors_name_the_stage():
    gens = [parse_polynomial("z0*z1 - z2*z3"), parse_polynomial("z0^2")]
    with pytest.raises(ResourceLimitError, match=r"^buchberger, degree 3: pair cap 0 exceeded$"):
        buchberger(gens, pair_cap=0)


def test_buchberger_matches_sympy_grevlex():
    """Monic reduced bases equal sympy's grevlex ones with z0 > z1 > z2 > z3."""
    sympy = pytest.importorskip("sympy")
    zs = sympy.symbols("z0:4")
    rng = Random(14)
    largest = 0
    for _ in range(20):
        gens = []
        while len(gens) < 3:
            deg = rng.randint(1, 3)
            p = HomogeneousPolynomial(deg, {
                m: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                for m in monomials_of_degree(deg) if rng.random() < 0.3})
            if p:
                gens.append(p)
        polys = [sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                       for m, c in g.terms.items()}, *zs, domain="QQ")
                 for g in gens]
        theirs = []
        for g in sympy.groebner(polys, *zs, order="grevlex", domain="QQ").exprs:
            terms = sympy.Poly(g, *zs, domain="QQ").terms(order="grevlex")
            lc = terms[0][1]  # the grevlex lead; Poly.monic() would use lex
            theirs.append({m: Fraction(int((c / lc).p), int((c / lc).q)) for m, c in terms})
        theirs.sort(key=lambda terms: degrevlex_key(max(terms, key=degrevlex_key)))
        assert [g.terms for g in buchberger(gens)] == theirs
        largest = max(largest, len(theirs))
    assert largest >= 10


def test_rao_negative_dimension_names_the_twist(monkeypatch):
    true_rank = resolution._dual_map_rank
    # the walk starts at twist 0, where dim3 = 1 and h = 1: a rank 1 too high
    # gives h = 0 and rank3 = dim3, the stop; 2 too high gives h = -1
    monkeypatch.setattr(resolution, "_dual_map_rank", lambda *args: true_rank(*args) + 2)
    with pytest.raises(ResourceLimitError,
                       match=r"^Rao twist 0: negative cohomology dimension -1$"):
        rao_module_dimensions(_ideal(*SKEW))


# the former _degree_matrix, kept verbatim for the former-loop oracle below:
# Fraction vectors, each entry taken as it is
def _former_degree_matrix(columns, twists, target_twists, degree):
    """Degree-e piece of the map (+) S(b_j) -> (+) S(c_i) sending the j-th
    generator to columns[j], a map from target slot to polynomial: one sparse
    column per entry of _degree_basis(twists, degree), over the rows
    _degree_basis(target_twists, degree)."""
    row_index = {key: i for i, key in enumerate(_tuple_degree_basis(target_twists, degree))}
    matrix = []
    for slot, m in _tuple_degree_basis(twists, degree):
        vec = {}
        for target, poly in columns[slot].items():
            for pm, pc in poly.terms.items():
                vec[row_index[(target, mono_mul(pm, m))]] = pc
        matrix.append(vec)
    return matrix


# the oracle: the former resolution loop, whose layer L ran its image check
# up to regb + L + 1 whatever the input, kept verbatim but for its removed
# degree_bound and the Fraction vectors it clears for Echelon and
# kernel_of_columns (_cleared_vector, _fraction_kernel)
def _regb_minimal_free_resolution(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I, complete in degrees <= bound."""
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    regb = ideal.regularity_bound()
    bound = regb + 6
    if bound > 60:
        raise ResourceLimitError(f"truncation bound {bound} is too large")

    elements = ideal._basis_elements()
    lead_gens = ideal.lead_ideal()
    res = FreeResolution(twists=[[0]], differentials=[], bound=bound)
    if not lead_gens:
        return res

    for layer in range(1, 6):
        # generators of F_layer, as columns of d_layer over F_{layer-1}
        twists, columns = [], []
        source = res.twists[layer - 1]
        for e in range(min(-b for b in source), min(bound, regb + layer + 1) + 1):
            where = f"layer {layer}, degree {e}"
            # dim ker(d_{layer-1})_e, by exactness; for layer 1, dim I_e
            target = (-1) ** layer * ideal.hilbert_function(e) + sum(
                (-1) ** (layer - 1 - i) * res.layer_dimension(i, e) for i in range(layer)
            )
            ech = Echelon()
            for vec in _former_degree_matrix(columns, twists, source, e):
                if ech.rank == target:
                    break
                ech.insert(_cleared_vector(vec))
            if ech.rank == target:
                continue
            if e == regb + layer + 1:
                raise ResourceLimitError(
                    f"{where}: resolution generator found at the safety margin degree"
                )
            if layer == 1:
                # m - NF(m) for each m in in(I)_e; the normal form is unique,
                # so dividing by the unreduced elements gives the same one
                reduced = []
                for m in monomials_of_degree(e):
                    if any(mono_divides(g, m) for g in lead_gens):
                        r, mult = _divide({_pack(m): 1}, elements)
                        terms = {m: Fraction(1)}
                        for rm, c in r.items():
                            terms[_unpack(rm)] = Fraction(-c, mult)
                        reduced.append({0: HomogeneousPolynomial(e, terms)})
                candidates = _former_degree_matrix(reduced, [-e] * len(reduced), [0], e)
            else:
                candidates = _fraction_kernel(_former_degree_matrix(
                    res.differentials[layer - 2], source, res.twists[layer - 2], e))
            if len(candidates) != target:
                raise ResourceLimitError(f"{where}: kernel dimension audit failed")
            basis = _tuple_degree_basis(source, e)
            for z in candidates:
                if ech.insert(_cleared_vector(z)) is not None:
                    twists.append(-e)
                    columns.append(_tuple_element(z, basis, source, e))
            if ech.rank != target:
                raise ResourceLimitError(f"{where}: image dimension audit failed")
        if not twists:
            break
        if layer == 5:
            raise ResourceLimitError(
                f"layer 5, degree {-max(twists)}: resolution did not terminate at length 4"
            )
        res.twists.append(twists)
        res.differentials.append(columns)

    if not res.alternating_sum_ok(ideal.hilbert_function):
        raise ResourceLimitError(
            f"all layers, degrees 0..{bound}: resolution dimension audit failed"
        )
    return res


# the largest ideal the acceptance gate resolves: a complete intersection of
# degrees 3, 2, 3 with regularity_bound 8 and regularity 5
GATE_CI = ["2*z0*z1^2 + 3*z0^2*z2 - 2*z1*z2^2 - z1^2*z3", "2*z0^2 + 3*z1^2 - 2*z0*z2 - z3^2",
           "-z0*z1*z2 - z1*z2^2 - 3*z0*z1*z3"]


def _resolved(resolve, ideal):
    """((twists, bound), the resolution), or ((the type and message of the
    error raised), None)."""
    try:
        res = resolve(ideal)
    except (ValueError, ResourceLimitError) as exc:
        return (type(exc), str(exc)), None
    return (res.twists, res.bound), res


def _assert_minimal_free_resolution(ideal, res):
    """res is a minimal free resolution of S/I, given that its twists are
    the graded Betti numbers of S/I (the callers compare them with an
    oracle's or a known table):
      - the entries of d_1 generate I;
      - composition_ok() and is_minimal() hold;
      - rank(d_L)_e + rank(d_(L+1))_e = dim (F_L)_e, so im d_(L+1) =
        ker d_L in degree e, in every degree e where F_(L+1) has a
        generator.  rank(d_1)_e is dim I_e, since d_1 maps onto I; the
        other ranks eliminate _full_row_degree_matrix.
    By induction on L this is exactness in every degree: once F_L -> ... ->
    S -> S/I is exact, ker d_L is the L-th syzygy module of S/I, minimally
    generated in the degrees of the generators of F_(L+1), so the lowest
    degree where it could differ from im d_(L+1) is one of them; at the
    top, F_(L+1) = 0 and ker d_L has no generator."""
    gens = [column[0] for column in res.differentials[0]] if res.differentials else []
    assert GradedIdeal(gens).equals(ideal)
    assert res.composition_ok() and res.is_minimal()

    def rank(layer, e):
        if layer == 1:
            return res.layer_dimension(0, e) - ideal.hilbert_function(e)
        matrix = _full_row_degree_matrix(res.differentials[layer - 1], res.twists[layer],
                                         res.twists[layer - 1], e)[1]
        ech = Echelon()
        for vec in matrix:
            ech.insert(vec)
        return ech.rank

    for layer in range(1, res.length()):
        for e in sorted({-b for b in res.twists[layer + 1]}):
            assert rank(layer, e) + rank(layer + 1, e) == res.layer_dimension(layer, e), (layer, e)


def _resolution_cases():
    """Seeded ideals of every kind the resolution meets."""
    rng = Random(21)
    for _ in range(40):  # up to three sparse generators of degree up to 4
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            gens.append(HomogeneousPolynomial(deg, {
                m: rng.randint(-3, 3) for m in monomials_of_degree(deg) if rng.random() < 0.25}))
        yield GradedIdeal(gens)
    for ideal in _random_ideals(Random(25), 30):  # up to four, of degree up to 3
        yield ideal
    for gens in _dense_complete_intersections()[:9]:
        yield GradedIdeal(gens)
    for gens in _degenerate_ideals().values():
        yield GradedIdeal(gens)
    yield _ideal("z0*z2 - z1^2", "z1*z3 - z2^2", "z0*z3 - z1*z2")  # twisted cubic
    base = _ideal(*SKEW)
    yield GradedIdeal(list(base.generators)
                      + [parse_polynomial("z1*z3^3") * base.generators[0]])
    yield base
    yield _ideal("z0", "z1", "z2", "z3")
    yield _ideal(*GATE_CI)
    yield _ideal("z0", "z1")
    yield _ideal("z0^2", "z1^3", "z2*z3")
    yield _ideal("z0^30", "z1^31")  # the truncation bound is refused
    yield _ideal("2/3")  # the unit ideal
    yield GradedIdeal([])
    draws = Random(22)
    for _ in range(25):
        yield verification._random_ideal(draws)


def test_resolution_layers_match_the_former_loop_exactly():
    """Stopping each layer at its last degree changes no twist, no bound
    and no error.  The differentials may differ from the former loop's,
    which kept the first independent candidates where the new generators
    now sit at the free rows of the image; each is checked to be a minimal
    free resolution of S/I instead."""
    kinds = {}
    for ideal in _resolution_cases():
        mine, res = _resolved(minimal_free_resolution, ideal)
        assert mine == _resolved(_regb_minimal_free_resolution, ideal)[0]
        if res is not None:
            _assert_minimal_free_resolution(ideal, res)
        kind = "error" if res is None else (
            "koszul" if ideal.generators and resolution._koszul_degrees(ideal) else "other")
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["error"] == 2 and kinds["koszul"] >= 20 and kinds["other"] >= 19, kinds


def _layer_degrees(monkeypatch, ideal):
    """The degrees each layer visits while ideal is resolved, and the pairs
    (L, e) where a degree matrix of d_L is built.  Each layer reads
    ideal.hilbert_function once per degree it visits, for its kernel
    dimension: degrees rise within a layer, and each layer starts at its
    smallest source twist, below where the layer before ended.  The final
    dimension audit reads degrees 0..bound last; they are dropped.  A
    matrix built is of the degree read last."""
    degrees, built = [], []
    with monkeypatch.context() as m:
        real_hilbert, real_matrix = GradedIdeal.hilbert_function, resolution._degree_matrix
        m.setattr(GradedIdeal, "hilbert_function",
                  lambda self, k: degrees.append(k) or real_hilbert(self, k))
        m.setattr(resolution, "_degree_matrix",
                  lambda columns, basis, rows: built.append(
                      (columns, degrees[-1])) or real_matrix(columns, basis, rows))
        res = minimal_free_resolution(ideal)
    layers = [[degrees[0]]]
    for previous, e in zip(degrees, degrees[1:]):
        if e < previous:
            layers.append([])
        layers[-1].append(e)
    assert layers[-1] == list(range(res.bound + 1))
    pieces = {(1 + [id(d) for d in res.differentials].index(id(columns)), e)
              for columns, e in built}
    return res, layers[:-1], pieces


def test_resolution_layers_stop_one_degree_past_their_last_degree(monkeypatch):
    """On the gate's complete intersection of degrees 3, 2, 3 the last
    degrees are 3 (the largest generator), then 6, 8 and 8 (sums of the
    largest Koszul degrees), not regb + L = 9, 10, 11, 12.  Each layer with
    generators builds its differential d_L in the degree past its last; the
    next layer builds d_L only in degrees layer L never reached, so that
    matrix is layer L's image check."""
    ideal = _ideal(*GATE_CI)
    assert ideal.regularity_bound() == 8
    res, layers, built = _layer_degrees(monkeypatch, ideal)
    assert res.betti() == [[0, [0]], [1, [-3, -3, -2]], [2, [-6, -5, -5]], [3, [-8]]]
    assert [max(layer) for layer in layers] == [4, 7, 9, 9]
    assert [min(layer) for layer in layers] == [0, 2, 5, 8]
    assert {(1, 4), (2, 7), (3, 9)} <= built
    # a non-complete intersection keeps regb + L above layer 1
    res, layers, built = _layer_degrees(monkeypatch, _ideal(*SKEW))
    assert resolution._koszul_degrees(_ideal(*SKEW)) is None
    assert [max(layer) for layer in layers] == [3, 4, 5, 6]
    assert {(1, 3), (2, 4), (3, 5)} <= built


def test_each_degree_piece_of_a_differential_is_built_and_eliminated_once(monkeypatch):
    """The image check of layer L in degree e eliminates the degree-e piece
    of d_L once, and layer L + 1 takes its kernel: no piece, identified by
    its row keys and its degree, is built twice, and each matrix built goes
    through one kernel_of_columns call and no other.  The free rows are read
    off that elimination's echelon form: the resolution inserts no vector
    into any Echelon.  In a degree the layer below never reached, layer L
    builds d_(L-1) on the free columns only, the free rows of its image
    check of d_L, and each vector of its kernel there is a new generator.
    The insert recorder is live: the Rao ranks of the last ideal, which
    insert into Echelons, are seen to insert."""
    built, eliminated, inserts = [], [], []
    degrees = []  # the degree of each target the layers read, as _layer_degrees
    real_matrix, real_kernel = resolution._degree_matrix, resolution.kernel_of_columns
    real_insert, real_hilbert = Echelon.insert, GradedIdeal.hilbert_function

    def record_matrix(columns, basis, rows):
        out = real_matrix(columns, basis, rows)
        built.append(((tuple(rows), degrees[-1]), out, columns, len(degrees)))
        return out

    def record_kernel(columns, ech=None):
        eliminated.append(columns)
        out = real_kernel(columns, ech)
        kernels[id(columns)] = len(out)
        return out

    def record_insert(self, vec):
        inserts.append(self.rank)
        return real_insert(self, vec)

    monkeypatch.setattr(resolution, "_degree_matrix", record_matrix)
    monkeypatch.setattr(resolution, "kernel_of_columns", record_kernel)
    monkeypatch.setattr(Echelon, "insert", record_insert)
    monkeypatch.setattr(GradedIdeal, "hilbert_function",
                        lambda self, k: degrees.append(k) or real_hilbert(self, k))
    ideals = [_ideal(*GATE_CI), _ideal(*SKEW), legendrian_sample(3, Random(0)).ideal]
    counts, unreached = [], 0
    for ideal in ideals:
        built.clear()
        eliminated.clear()
        degrees.clear()
        kernels = {}
        res = minimal_free_resolution(ideal)
        keys = [key for key, *_ in built]
        assert len(keys) == len(set(keys)), "a degree piece of a differential was built twice"
        assert sorted(map(id, eliminated)) == sorted(id(matrix) for _, matrix, *_ in built)
        # an image check with no generators yet builds no matrix
        assert res.composition_ok() and all(matrix for _, matrix, *_ in built)
        assert inserts == []
        # the layer of each matrix: degrees fall where a layer starts
        layer_at = [1]
        for previous, e in zip(degrees, degrees[1:]):
            layer_at.append(layer_at[-1] + (e < previous))
        for (_, e), matrix, columns, read in built:
            d = 1 + [id(c) for c in res.differentials].index(id(columns))
            if d == layer_at[read - 1] - 1:  # layer L builds d_(L-1): never reached there
                assert kernels[id(matrix)] == res.twists[d + 1].count(-e) > 0, (d, e)
                # the free columns: dim (F_(L-1))_e less the rank of the image
                # check of d_L in that degree, if it built a matrix
                rank = sum(len(image) - kernels[id(image)] for _, image, image_columns, at
                           in built if at == read and image_columns is res.differentials[d])
                assert len(matrix) == res.layer_dimension(d, e) - rank, (d, e)
                unreached += 1
        counts.append(len(built))
    assert counts == [8, 3, 6]
    assert unreached, unreached
    rao_module_dimensions(ideals[-1])
    assert inserts


# the former _resolve and _degree_matrix, which built and eliminated every
# degree matrix over all rows of its codomain piece, kept verbatim but for
# their names, the groebner. prefixes and the docstrings, as the oracle of
# the resolution over determining rows
def _full_row_degree_matrix(columns, twists, target_twists, degree):
    row_index = {key: i for i, key in enumerate(_degree_basis(target_twists, degree))}
    cleared = {slot: [(target, poly._cleared) for target, poly in columns[slot].items()]
               for slot, b in enumerate(twists) if degree + b >= 0}
    den = lcm(*(d for entries in cleared.values() for _, (d, _) in entries))
    matrix = []
    for slot, m in _degree_basis(twists, degree):
        vec = {}
        for target, (d, terms) in cleared[slot]:
            s = den // d
            # kept inline: the hot loop of every degree matrix
            for pm, pc in terms.items():
                vec[row_index[(target, pm + m)]] = pc * s
        matrix.append(vec)
    return den, matrix


def _full_row_resolve(ideal: GradedIdeal) -> FreeResolution:
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    maxdeg = ideal.max_generator_degree()
    regb = ideal.regularity_bound()
    bound = regb + 6
    if bound > 60:
        raise ResourceLimitError(f"truncation bound {bound} is too large")

    elements = ideal._basis_elements()
    lead_gens = ideal._packed_lead()
    res = FreeResolution(twists=[[0]], differentials=[], bound=bound)
    if not lead_gens:
        return res

    koszul = resolution._koszul_degrees(ideal)
    below = {}  # degree -> kernel of d_(layer-1) there, from the image checks of layer - 1
    for layer in range(1, 6):
        # no generator of F_layer lies past last (see the docstring)
        if layer == 1:
            last = min(regb + 1, maxdeg)
        elif koszul is not None:
            # the sum is at most regb + layer unless regb is wrong, which
            # the safety margin then reports
            last = min(regb + layer, sum(koszul[:layer]))
        else:
            last = regb + layer
        # generators of F_layer, as columns of d_layer over F_{layer-1}
        twists, columns = [], []
        source = res.twists[layer - 1]
        kernels = {}
        for e in range(min(-b for b in source), last + 2):
            where = f"layer {layer}, degree {e}"
            # dim ker(d_{layer-1})_e, by exactness; for layer 1, dim I_e
            target = (-1) ** layer * ideal.hilbert_function(e) + sum(
                (-1) ** (layer - 1 - i) * res.layer_dimension(i, e) for i in range(layer)
            )
            # the image check: one elimination of the multiples of the
            # generators found so far.  Those found in degree e are
            # independent of them and come last, so this kernel is also the
            # kernel of d_layer in degree e, which the next layer takes.
            _, images = _full_row_degree_matrix(columns, twists, source, e)
            kernel = kernels[e] = kernel_of_columns(images)
            if len(images) - len(kernel) == target:
                continue
            if e == last + 1:
                raise ResourceLimitError(
                    f"{where}: resolution generator found at the safety margin degree"
                )
            basis = _degree_basis(source, e)
            if layer == 1:
                # m - NF(m) for each m in in(I)_e; the normal form is unique,
                # so dividing by the unreduced elements gives the same one
                index = {m: i for i, (_, m) in enumerate(basis)}
                candidates = []
                for _, m in basis:
                    if any(groebner._divides(g, m) for g in lead_gens):
                        r, mult = _divide({m: 1}, elements)
                        z = {index[m]: mult}  # mult times m - NF(m)
                        for rm, c in r.items():
                            z[index[rm]] = -c
                        candidates.append((mult, z))
            elif e in below:
                candidates = below[e]
            else:  # a degree the layer below never reached
                candidates = kernel_of_columns(_full_row_degree_matrix(
                    res.differentials[layer - 2], source, res.twists[layer - 2], e)[1])
            if len(candidates) != target:
                raise ResourceLimitError(f"{where}: kernel dimension audit failed")
            # a column is dependent when it is the last one its kernel vector uses
            dependent = {max(z) for _, z in kernel}
            ech = Echelon()
            for j, vec in enumerate(images):
                if j not in dependent:
                    ech.insert(vec)
            for den, z in candidates:  # the candidate z / den
                if ech.rank == target:
                    break
                if ech.insert(z) is not None:
                    twists.append(-e)
                    columns.append(_element(z, basis, den))
            if ech.rank != target:
                raise ResourceLimitError(f"{where}: image dimension audit failed")
        below = kernels
        if not twists:
            break
        if layer == 5:
            raise ResourceLimitError(
                f"layer 5, degree {-max(twists)}: resolution did not terminate at length 4"
            )
        res.twists.append(twists)
        res.differentials.append(columns)

    mismatch = res._alternating_sum_mismatch(ideal.hilbert_function)
    if mismatch is not None:
        e, total, expected = mismatch
        raise ResourceLimitError(
            f"all layers, degree {e}: resolution dimension audit failed, "
            f"alternating sum {total} against H({e}) = {expected}"
        )
    if koszul is not None:
        # a second route to the Betti table: the Koszul complex of the degrees
        sums = [[0]]  # sums[L] lists the sums of the L-element subsets
        for d in koszul:
            sums = [a + [s + d for s in b] for a, b in zip(sums + [[]], [[]] + sums)]
        for layer in range(1, max(len(res.twists), len(sums))):
            got = sorted(res.twists[layer]) if layer < len(res.twists) else []
            want = sorted(-s for s in sums[layer]) if layer < len(sums) else []
            if got != want:
                raise CrossCheckFailureError(
                    f"layer {layer}: twists {got} differ from the Koszul twists {want} "
                    f"of the complete intersection of degrees {koszul}"
                )
    return res



def test_resolution_over_determining_rows_matches_the_full_row_oracle(monkeypatch):
    """Eliminating over determining rows changes no twist, no bound and no
    error, on the rao pool, legendrian samples of degree 2 to 6, the gate's
    complete intersection, two skew lines and random ideals.  The oracle
    keeps the first independent candidates, and the resolution takes its
    new generators at the free rows of the image, so the differentials may
    differ; each is checked to be a minimal free resolution of S/I.  Layer
    1 divides only for the generators it takes: one division per twist of
    F_1."""
    ideals = _rao_pool_ideals()
    ideals += [legendrian_sample(d, Random(seed)).ideal for d in range(2, 7) for seed in range(3)]
    ideals += [_ideal(*GATE_CI), _ideal(*SKEW)] + list(_random_ideals(Random(26), 30))
    divisions = []
    real_divide = groebner._divide
    kinds = {"resolved": 0, "error": 0}
    for ideal in ideals:
        ideal._basis_elements()  # Buchberger's divisions come first
        divisions.clear()
        with monkeypatch.context() as m:
            m.setattr(resolution, "_divide",
                      lambda work, table: divisions.append(work) or real_divide(work, table))
            mine, res = _resolved(resolution._resolve, ideal)
        assert mine == _resolved(_full_row_resolve, ideal)[0]
        if res is None:
            kinds["error"] += 1
            continue
        kinds["resolved"] += 1
        assert len(divisions) == len(res.twists[1] if len(res.twists) > 1 else [])
        _assert_minimal_free_resolution(ideal, res)
    assert kinds["error"] == 0 and kinds["resolved"] == len(ideals) >= 110, (kinds, len(ideals))


@pytest.mark.parametrize("patch, ideal, message", [
    ((GradedIdeal, "hilbert_function", lambda real: lambda self, k: real(self, k) + (k == 2)),
     SKEW, r"layer 1, degree 2: 4 determining rows against dimension 3"),
    ((FreeResolution, "layer_dimension",
      lambda real: lambda self, i, e: real(self, i, e) + ((i, e) == (1, 3))),
     SKEW, r"layer 2, degree 3: 4 determining rows against dimension 5"),
    ((GradedIdeal, "hilbert_function", lambda real: lambda self, k: real(self, k) + (k == 5)),
     GATE_CI, r"layer 2, degree 5: 38 determining rows against dimension 37"),
], ids=["layer-1", "layer-2-from-the-kernel-below", "layer-2-kernel-of-d1"])
def test_determining_row_count_is_audited_against_the_hilbert_function(
        monkeypatch, patch, ideal, message):
    """The determining rows of a degree number the dimension that exactness
    and the Hilbert function give for what they determine: the kernel the
    layer must cover, or I_5 = 38 for the kernel of d_1 that layer 2 takes
    above layer 1's last degree.  One off raises CrossCheckFailureError
    naming the layer and the degree."""
    owner, name, wrap = patch
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    with pytest.raises(CrossCheckFailureError, match=f"^{message}$"):
        minimal_free_resolution(_ideal(*ideal))


def test_degree_matrix_is_the_former_fraction_matrix_over_one_denominator():
    """_degree_matrix gives integer columns, over one denominator the lcm of
    the denominators of the polynomials it multiplies; over it they are the
    former Fraction columns, entry by entry and in the same order.  On a
    seeded sample of its column and row keys it is the submatrix of those
    columns and rows, over the lcm for the slots of the columns kept."""
    rng = Random(8)
    pieces = dens = 0

    def den_of(columns, slots):
        return lcm(*(c.denominator for slot in slots for p in columns[slot].values()
                     for c in p.terms.values()))

    for ideal in _random_ideals(rng, 20):
        res = minimal_free_resolution(ideal)
        for layer in range(1, res.length() + 1):
            columns = res.differentials[layer - 1]
            twists, rows = res.twists[layer], res.twists[layer - 1]
            for e in range(min(-b for b in twists), min(-b for b in twists) + 3):
                basis, row_keys = _degree_basis(twists, e), _degree_basis(rows, e)
                matrix = _degree_matrix(columns, basis, row_keys)
                former = _former_degree_matrix(columns, twists, rows, e)
                den = den_of(columns, {slot for slot, _ in basis})
                assert [list(v.items()) for v in matrix] == [
                    [(i, c * den) for i, c in v.items()] for v in former]
                assert all(type(c) is int for v in matrix for c in v.values())
                assert den == lcm(*(c.denominator for v in former for c in v.values()))
                kept = sorted(rng.sample(range(len(basis)), rng.randint(1, len(basis))))
                kept_rows = rng.sample(range(len(row_keys)), rng.randint(0, len(row_keys)))
                sub = _degree_matrix(columns, [basis[j] for j in kept],
                                     [row_keys[i] for i in kept_rows])
                scale = den_of(columns, {basis[j][0] for j in kept})
                assert sub == [{k: former[j][i] * scale for k, i in enumerate(kept_rows)
                                if i in former[j]} for j in kept]
                pieces += 1
                dens += den > 1
    assert pieces > 100 and dens > 10, (pieces, dens)


def test_dual_map_rank_stops_at_the_dimension_of_the_piece(monkeypatch):
    """No vector is inserted once the rank of a dual map equals the
    dimension of its codomain piece, and the ranks are the former code's."""
    ceiling = []  # the dimension of the piece whose rank is being taken, if any
    stops = late = 0
    real_rank, real_insert = resolution._dual_map_rank, Echelon.insert

    def rank(twists_dom, twists_cod, columns, k):
        nonlocal stops
        piece = sum(graded_piece_dimension(-b - 4 - k) for b in twists_cod)
        ceiling.append(piece)
        try:
            out = real_rank(twists_dom, twists_cod, columns, k)
        finally:
            ceiling.pop()
        assert out == _former_dual_map_rank(twists_dom, twists_cod, columns, k)
        stops += out == piece
        return out

    def insert(self, vec):
        nonlocal late
        late += bool(ceiling) and self.rank == ceiling[-1]
        return real_insert(self, vec)

    monkeypatch.setattr(resolution, "_dual_map_rank", rank)
    monkeypatch.setattr(Echelon, "insert", insert)
    # each walk reaches the ceiling once, at the twist where it stops
    for ideal in (_ideal(*SKEW), *(legendrian_sample(d, Random(0)).ideal for d in (2, 3, 4, 5))):
        rao_module_dimensions(ideal)
    assert late == 0 and stops >= 5, (late, stops)


def test_koszul_certificate_holds_exactly_when_the_dimension_is_4_minus_r():
    """Two routes to a complete intersection: hilbert_numerator() equals
    prod(1 - t^d) over the r generators exactly when the Hilbert polynomial
    has degree 3 - r."""
    seen = {True: 0, False: 0}
    rng = Random(23)
    ideals = [verification._random_ideal(rng) for _ in range(40)]
    ideals += list(_random_ideals(Random(24), 60))
    ideals += [GradedIdeal(gens) for gens in _dense_complete_intersections()]
    ideals += [GradedIdeal(gens) for gens in _degenerate_ideals().values()]
    ideals += [_ideal(*SKEW), _ideal(*GATE_CI), _ideal("z0", "z1", "z2", "z3"),
               _ideal("z0", "z1", "z2", "z3", "z0 + z1"), _ideal("z0*z1", "z0*z2")]
    for ideal in ideals:
        r = len(ideal.generators)
        certified = resolution._koszul_degrees(ideal) is not None
        assert certified == (ideal.hilbert_polynomial().degree() == 3 - r)
        if certified:
            assert resolution._koszul_degrees(ideal) == sorted(
                (g.degree for g in ideal.generators), reverse=True)
        seen[certified] += 1
    assert seen[True] >= 30 and seen[False] >= 20, seen


def test_koszul_last_degrees_never_exceed_the_regularity_bound():
    """For a complete intersection of degrees d_1 >= ... >= d_r the sum of
    the L largest is at most regularity_bound() + L, since reg(S/I) =
    sum(d_i - 1): the clamp on the Koszul last degree binds only on a wrong
    bound, and no Koszul twist lies past the audit's bound."""
    seen = 0
    for ideal in _resolution_cases():
        if not ideal.generators or ideal.is_unit_ideal():
            continue
        koszul = resolution._koszul_degrees(ideal)
        if koszul is None:
            continue
        regb = ideal.regularity_bound()
        assert sum(d - 1 for d in koszul) <= regb
        for layer in range(1, len(koszul) + 1):
            assert sum(koszul[:layer]) <= regb + layer
        seen += 1
    assert seen >= 90


def test_resolution_safety_margin_fires_on_an_underestimated_koszul_bound(monkeypatch):
    """With every Koszul sum one too low, layer 2 of the gate's complete
    intersection meets its degree-6 generator at the safety margin."""
    real = resolution._koszul_degrees

    def one_too_low(ideal):
        degrees = real(ideal)
        return [degrees[0] - 1] + degrees[1:]

    monkeypatch.setattr(resolution, "_koszul_degrees", one_too_low)
    with pytest.raises(ResourceLimitError,
                       match=r"^layer 2, degree 6: resolution generator found at the safety "
                             r"margin degree$"):
        minimal_free_resolution(_ideal(*GATE_CI))
    with pytest.raises(ResourceLimitError, match=r"^layer 2, degree 2: .*safety margin degree$"):
        minimal_free_resolution(_ideal("z0", "z1"))


@pytest.mark.parametrize("gens, change, message", [
    (GATE_CI, lambda twists: twists[3].pop(),
     r"layer 3: twists \[\] differ from the Koszul twists \[-8\] "),
    (GATE_CI, lambda twists: twists[2].pop(),
     r"layer 2: twists \[-5, -5\] differ from the Koszul twists \[-6, -5, -5\] "),
    (GATE_CI, lambda twists: twists[3].append(-9),
     r"layer 3: twists \[-9, -8\] differ from the Koszul twists \[-8\] "),
    (["z0", "z1"], lambda twists: twists.append([-4]),
     r"layer 3: twists \[-4\] differ from the Koszul twists \[\] "),
], ids=["top-layer-loses-its-generator", "layer-2-loses-a-generator", "extra-generator",
        "extra-layer"])
def test_koszul_cross_check_names_the_layer_that_lost_a_generator(
        monkeypatch, gens, change, message):
    """A resolution that passes the dimension audit and then loses or gains
    a generator fails the check against the Koszul complex."""
    real = FreeResolution._alternating_sum_mismatch

    def audit_then_change(self, hilbert_function):
        mismatch = real(self, hilbert_function)
        change(self.twists)
        return mismatch

    monkeypatch.setattr(FreeResolution, "_alternating_sum_mismatch", audit_then_change)
    ideal = _ideal(*gens)
    degrees = re.escape(str(resolution._koszul_degrees(ideal)))
    with pytest.raises(CrossCheckFailureError,
                       match=f"^{message}of the complete intersection of degrees {degrees}$"):
        minimal_free_resolution(ideal)


def test_resolution_dimension_audit_names_its_degree(monkeypatch):
    """H(6) of a line is read only by the final audit; one off there is
    reported with the degree, the alternating sum and H(6)."""
    real = GradedIdeal.hilbert_function
    monkeypatch.setattr(GradedIdeal, "hilbert_function",
                        lambda self, k: real(self, k) + (k == 6))
    with pytest.raises(ResourceLimitError,
                       match=r"^all layers, degree 6: resolution dimension audit failed, "
                             r"alternating sum 7 against H\(6\) = 8$"):
        minimal_free_resolution(_ideal("z0", "z1"))


def test_gate_json_is_byte_identical_to_the_recorded_output(capsys):
    recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                           / "verify_all.json").read_text())
    assert cli.main(["verify", "--suite", "all", "--seed", "0", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == recorded["sha256"]


# ---------------------------------------------------------------------------
# the section route of hilbert_numerator

SECTION = "z0 + 2*z1 + 3*z2"


def _exact_numerator(gens):
    """hilbert_numerator by the lead ideal of the four-variable basis."""
    return dict(_packed_numerator(GradedIdeal(gens).lead_ideal()))


def _sorted_ci_numerator(gens):
    return dict(sorted(groebner._ci_numerator([g.degree for g in gens]).items()))


def _sparse_form(rng, deg):
    return HomogeneousPolynomial(deg, {
        m: rng.randint(-3, 3) for m in monomials_of_degree(deg) if rng.random() < 0.3})


def _section_cases():
    """Seeded generators, 1 to 3 sparse or dense forms of degree 1 to 4; now
    and then the forms share a linear factor or one form is repeated."""
    rng = Random(26)
    for _ in range(120):
        roll = rng.random()
        top = 3 if roll < 0.2 else 4
        gens = [(_dense_form if rng.random() < 0.4 else _sparse_form)(rng, rng.randint(1, top))
                for _ in range(rng.randint(1, 3))]
        if roll < 0.2:
            factor = _dense_form(rng, 1)
            gens = [factor * g for g in gens]
        elif roll < 0.3 and len(gens) < 3:
            gens.append(rng.choice(gens).scale(-2))
        yield [g for g in gens if g]


def test_section_route_matches_the_exact_numerator_on_random_ideals():
    """Certified or not, hilbert_numerator() has the exact route's keys,
    values and key order; a certified query builds no four-variable basis."""
    seen = {"certified": 0, "complete-intersection fallback": 0, "other fallback": 0}
    for gens in _section_cases():
        if not gens:
            continue
        ideal = GradedIdeal(gens)
        exact = _exact_numerator(gens)
        assert list(ideal.hilbert_numerator().items()) == list(exact.items())
        if ideal._elements is None:
            assert exact == _sorted_ci_numerator(gens)
            seen["certified"] += 1
        elif exact == _sorted_ci_numerator(gens):
            seen["complete-intersection fallback"] += 1
        else:
            seen["other fallback"] += 1
    assert sum(seen.values()) >= 100
    assert seen["certified"] >= 80 and seen["other fallback"] >= 15, seen


def test_section_route_matches_the_exact_numerator_on_the_hilbert_pool():
    """All 240 ideals of the benchmark's hilbert pool: the same numerator in
    the same key order, the recorded Hilbert polynomial, and at least 209 of
    the 213 complete intersections certified on the section."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                       / "hilbert_pool.json").read_text())["ideals"]
    certified = complete = 0
    for entry in pool:
        exprs = entry["text"].splitlines()
        ideal = _ideal(*exprs)
        exact = _exact_numerator(ideal.generators)
        assert list(ideal.hilbert_numerator().items()) == list(exact.items())
        recorded = json.loads(entry["stdout"])["payload"]["hilbert_polynomial"]
        assert str(ideal.hilbert_polynomial()) == recorded
        complete += exact == _sorted_ci_numerator(ideal.generators)
        certified += ideal._elements is None
    assert (len(pool), complete) == (240, 213)
    assert certified >= 209


@pytest.mark.parametrize("exprs, cut_vanishes", [
    ([f"(z3 - ({SECTION}))*z0", "z1^2", "z2^3"], True),
    (["z1", "z2", "z3 - z0"], False),
    (["z1", "z3 - z0 - 3*z2"], False),
], ids=["cut-vanishes", "point-on-section", "line-on-section"])
def test_section_route_falls_back_on_a_complete_intersection_the_section_misses(
        exprs, cut_vanishes):
    """Complete intersections whose cut is not regular: a generator divisible
    by z3 - l, the point (1:0:0:1) and a line lying on z3 = l."""
    ideal = _ideal(*exprs)
    assert [not groebner._section_cut(g) for g in ideal.generators] == (
        [cut_vanishes] + [False] * (len(exprs) - 1))
    assert groebner._section_numerator(ideal.generators) is None
    assert list(ideal.hilbert_numerator().items()) == list(
        _exact_numerator(ideal.generators).items())
    assert ideal._elements is not None
    assert resolution._koszul_degrees(ideal) is not None


def test_section_route_gives_up_a_non_complete_intersection_early(monkeypatch):
    """The certifying run stops at the first finished degree whose
    standard monomials outnumber the complete-intersection count, before
    its queue empties."""
    gens = _degenerate_ideals()["common-linear-factor"]
    cuts = [groebner._section_cut(g) for g in gens] + [HomogeneousPolynomial.variable(3)]
    divided = []
    real = groebner._s_polynomial_terms
    monkeypatch.setattr(groebner, "_s_polynomial_terms",
                        lambda e, f: divided.append(1) or real(e, f))
    assert groebner._groebner_elements(cuts, give_up=True) is None
    stopped = len(divided)
    divided.clear()
    assert groebner._groebner_elements(cuts)
    assert 0 < stopped < len(divided)
    assert GradedIdeal(gens).hilbert_numerator() == _exact_numerator(gens)


@pytest.mark.parametrize("exprs", [["2/3"], ["z0^2", "2/3", "z1"]])
def test_section_route_leaves_a_constant_generator_to_the_exact_route(exprs):
    ideal = _ideal(*exprs)
    assert groebner._section_numerator(ideal.generators) is None
    with pytest.raises(ValueError, match="^the unit ideal has no Hilbert polynomial$"):
        ideal.hilbert_polynomial()
    assert ideal.hilbert_numerator() == {}


@pytest.mark.parametrize("exprs", [
    ["z3^100000000"], ["z0^2", "z3^100000000"], ["z0*z1", "z2 - z3", "z3^100000000"],
    ["z0^2", "z0^100000000"],
])
def test_section_route_skips_a_form_of_huge_degree_quickly(exprs):
    started = time.perf_counter()
    ideal = _ideal(*exprs)
    P = ideal.hilbert_polynomial()
    assert time.perf_counter() - started < 1
    assert groebner._section_power.cache_info().currsize <= groebner.MAX_SECTION_DEGREE + 1
    if exprs[-1] != "z0^100000000":
        assert ideal.hilbert_numerator() == _sorted_ci_numerator(ideal.generators)
    else:
        assert str(P) == "t^2 + 2*t + 1"


def test_rao_builds_the_four_variable_basis_without_cutting_a_section(monkeypatch):
    """The resolution needs the four-variable basis, so the Hilbert query
    that checks for a curve reads it instead of certifying on a section."""
    def refuse(f):
        raise AssertionError("a section was cut")

    monkeypatch.setattr(groebner, "_section_cut", refuse)
    assert rao_module_dimensions(_ideal(*GATE_CI[:2])).total == 0


def test_a_certified_hilbert_query_never_builds_the_four_variable_basis(
        monkeypatch, tmp_path, capsys):
    """The one basis the hilbert command computes for a certified complete
    intersection is the section's: of the cut forms, in z0..z2, and z3."""
    bases = []
    real = groebner._groebner_elements
    monkeypatch.setattr(groebner, "_groebner_elements",
                        lambda gens, *args, **kw: bases.append(gens) or real(gens, *args, **kw))
    path = tmp_path / "quartic.ideal"
    path.write_text("z0*z1 - z2*z3\nz0^2 + z1^2 + z2^2 + z3^2\n")
    assert cli.main(["hilbert", str(path)]) == 0
    assert capsys.readouterr().out == (
        "Hilbert polynomial: 4*t\ncurve invariants: degree 4, genus 1\n")
    assert len(bases) == 1 and bases[0][-1] == HomogeneousPolynomial.variable(3)
    assert all(m[3] == 0 for g in bases[0][:-1] for m in g.terms)


def test_section_route_matches_sympy_hilbert_polynomials():
    """On 20 seeded complete intersections of 2 or 3 forms, the certified
    Hilbert function and polynomial equal those counted from the lead ideal
    of sympy's grevlex basis."""
    sympy = pytest.importorskip("sympy")
    zs = sympy.symbols("z0:4")
    rng = Random(28)
    checked = 0
    for _ in range(40):
        gens = [g for g in (_sparse_form(rng, rng.randint(1, 3))
                            for _ in range(rng.randint(2, 3))) if g]
        ideal = GradedIdeal(gens)
        if len(gens) < 2 or groebner._section_numerator(ideal.generators) is None:
            continue
        P = ideal.hilbert_polynomial()
        assert ideal._elements is None
        polys = [sympy.Poly.from_dict({m: int(c) for m, c in g.terms.items()}, *zs, domain="QQ")
                 for g in gens]
        leads = [sympy.Poly(g, *zs, domain="QQ").terms(order="grevlex")[0][0]
                 for g in sympy.groebner(polys, *zs, order="grevlex", domain="QQ").exprs]

        def count(k):
            return sum(not any(mono_divides(lead, m) for lead in leads)
                       for m in monomials_of_degree(k))

        top = sum(g.degree for g in gens)
        assert [ideal.hilbert_function(k) for k in range(top + 4)] == [
            count(k) for k in range(top + 4)]
        # four values past the last numerator exponent fix the cubic
        assert [P(k) for k in range(top, top + 4)] == [count(k) for k in range(top, top + 4)]
        checked += 1
        if checked == 20:
            break
    assert checked == 20


# ---------------------------------------------------------------------------
# packed exponent vectors against the former reversed-tuple code


def _tuple_divide(work: dict, table):
    """The former groebner._divide on reversed exponent tuples, verbatim."""
    heap = list(work)
    heapify(heap)
    remainder = {}
    mult = 1
    while heap:
        m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, a, tail in table:
            if lead[0] <= m[0] and lead[1] <= m[1] and lead[2] <= m[2] and lead[3] <= m[3]:
                q0, q1, q2, q3 = m[0] - lead[0], m[1] - lead[1], m[2] - lead[2], m[3] - lead[3]
                g = gcd(a, c)
                s, t = a // g, c // g
                if s != 1:
                    mult *= s
                    for k in work:
                        work[k] *= s
                    for k in remainder:
                        remainder[k] *= s
                # kept inline: division's hot loop; a cancelled term leaves work at once,
                # so no later scaling touches it
                for gm, gc in tail:
                    mm = (gm[0] + q0, gm[1] + q1, gm[2] + q2, gm[3] + q3)
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -t * gc
                        heappush(heap, mm)
                    else:
                        v -= t * gc
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return remainder, mult


def _tuple_s_polynomial_terms(e, f) -> dict:
    """The former groebner._s_polynomial_terms, verbatim."""
    (le, a, te), (lf, b, tf) = e, f
    top = mono_lcm(le, lf)
    g = gcd(a, b)
    acc = {}
    for lead, tail, scale in ((le, te, b // g), (lf, tf, -(a // g))):
        q = mono_quotient(top, lead)
        for m, c in tail:
            mm = mono_mul(m, q)
            acc[mm] = acc.get(mm, 0) + scale * c
    return {m: c for m, c in acc.items() if c}


def _tuple_next_standard(standard, leads):
    """The former groebner._next_standard, verbatim."""
    hits = {}
    for m in standard:
        for u in ((m[0] + 1, m[1], m[2], m[3]), (m[0], m[1] + 1, m[2], m[3]),
                  (m[0], m[1], m[2] + 1, m[3]), (m[0], m[1], m[2], m[3] + 1)):
            hits[u] = hits.get(u, 0) + 1
    return {u for u, n in hits.items()
            if n == (u[0] > 0) + (u[1] > 0) + (u[2] > 0) + (u[3] > 0) and u not in leads}


def _tuple_groebner_elements(generators, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None,
                             give_up: bool = False):
    """The former groebner._groebner_elements on reversed exponent tuples,
    verbatim but for the names of the helpers above."""
    gens = [g for g in generators if g]
    if any(g.degree == 0 for g in gens):
        return [(ONE_MONO, 1, [])]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    for g in sorted(gens, key=lambda g: degrevlex_key(g.lead_monomial())):
        r, _ = _tuple_divide({_unpack(m)[::-1]: c for m, c in g._cleared[1].items()}, basis)
        if r:
            basis.append(groebner._basis_element(r))

    lead = [e[0] for e in basis]
    pending = set()
    queue = []  # heap of (lcm degree, lcm ascending in degrevlex, pair)

    def add_pairs(new):
        for k in range(new):
            top = mono_lcm(lead[k], lead[new])
            pending.add((k, new))
            heappush(queue, (mono_degree(top), -top[0], -top[1], -top[2], -top[3], k, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    # the bound takes the kept generators: they generate I, and are no more
    numerator = (groebner._ci_numerator(mono_degree(m) for m in lead)
                 if len(gens) <= 4 else None)
    standard, std_degree, bound = {ONE_MONO}, 0, None  # standard monomials of std_degree
    walked = 0
    processed = 0
    while queue:
        key = heappop(queue)
        degree, pair = key[0], key[-2:]
        pending.discard(pair)
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(
                f"buchberger, degree {degree}: pair cap {pair_cap} exceeded")
        if numerator is not None:
            while std_degree < degree and walked <= groebner.MAX_STANDARD_WALK:
                if give_up and bound is not None and len(standard) > bound:
                    return None
                walked += len(standard)
                std_degree += 1
                standard = _tuple_next_standard(
                    standard, {m for m in lead if mono_degree(m) == std_degree})
                bound = groebner._ci_hilbert_function(numerator, std_degree)
            if std_degree == degree and len(standard) == bound:
                continue
        i, j = pair
        if mono_coprime(lead[i], lead[j]):
            continue
        top = mono_lcm(lead[i], lead[j])
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lead[k], top):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                chained = True
                break
        if chained:
            continue
        if degree_cap is not None and degree > degree_cap:
            raise ResourceLimitError(
                f"buchberger: S-polynomial of degree {degree} exceeds degree cap {degree_cap}")
        r, _ = _tuple_divide(_tuple_s_polynomial_terms(basis[i], basis[j]), basis)
        if not r:
            continue
        basis.append(groebner._basis_element(r))
        lead.append(basis[-1][0])
        standard.discard(lead[-1])  # a lead of the pair degree is not standard
        add_pairs(len(basis) - 1)
    return basis


def _as_tuples(elements):
    """Packed basis elements with every monomial a reversed exponent tuple."""
    if elements is None:
        return None
    return [(_unpack(lead)[::-1], a, [(_unpack(m)[::-1], c) for m, c in tail])
            for lead, a, tail in elements]


def _assert_same_elements(gens, give_up=False):
    new = groebner._groebner_elements(gens, give_up=give_up)
    assert _as_tuples(new) == _tuple_groebner_elements(gens, give_up=give_up)
    return new


def _seeded_monomials(rng, count):
    """Monomials whose exponents are 0, small, anything up to 2^31 - 1, or
    2^31 - 1 itself."""
    top = groebner.MAX_DEGREE
    draw = (lambda: 0, lambda: rng.randint(1, 3), lambda: rng.randint(0, top), lambda: top)
    return [tuple(rng.choice(draw)() for _ in range(NVARS)) for _ in range(count)]


def test_packed_monomials_match_the_tuple_operations():
    rng = Random(40)
    monos = _seeded_monomials(rng, 60)
    assert groebner.MAX_DEGREE == 2**31 - 1
    assert any(groebner.MAX_DEGREE in m for m in monos) and any(0 in m for m in monos)
    divisible = coprime = 0
    for a in monos:
        pa = _pack(a)
        assert _unpack(pa) == a and polyring.mono_degree(pa) == mono_degree(a)
        assert groebner._nonzero_fields(pa).bit_count() == sum(e > 0 for e in a)
        for b in monos + [tuple(rng.randint(0, e) for e in a)]:  # and a divisor of a
            pb = _pack(b)
            assert (pa < pb) == (a[::-1] < b[::-1])
            assert (pa == pb) == (a == b)
            assert _unpack(pa + pb) == mono_mul(a, b)
            assert groebner._divides(pb, pa) == mono_divides(b, a)
            if mono_divides(b, a):
                assert _unpack(pa - pb) == mono_quotient(a, b)
                divisible += 1
            assert _unpack(groebner._lcm(pa, pb)) == mono_lcm(a, b)
            assert _unpack(groebner._lcm(pb, pa)) == mono_lcm(a, b)
            packed_coprime = not groebner._nonzero_fields(pa) & groebner._nonzero_fields(pb)
            assert packed_coprime == mono_coprime(a, b)
            coprime += packed_coprime
    assert divisible >= 60 and coprime >= 20


def test_packed_division_matches_the_tuple_division():
    """The same remainder terms in the same order, and the same
    multiplier, on random terms and tables of basis elements."""
    rng = Random(41)
    for _ in range(200):
        table = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            terms = {m[::-1]: rng.randint(-3, 3) for m in monomials_of_degree(deg)
                     if rng.random() < 0.4}
            terms = {m: c for m, c in terms.items() if c}
            if terms:
                table.append(groebner._basis_element(terms))
        deg = rng.randint(1, 5)
        work = {m[::-1]: rng.randint(-5, 5) or 1 for m in monomials_of_degree(deg)
                if rng.random() < 0.5}
        packed_table = [(_pack(lead[::-1]), a, [(_pack(m[::-1]), c) for m, c in tail])
                        for lead, a, tail in table]
        r, mult = _divide({_pack(m[::-1]): c for m, c in work.items()}, packed_table)
        old_r, old_mult = _tuple_divide(work, table)
        assert [(_unpack(m)[::-1], c) for m, c in r.items()] == list(old_r.items())
        assert mult == old_mult


def test_packed_buchberger_gives_the_tuple_elements_on_random_ideals():
    """Leads, lead coefficients and tails in order, on random ideals with and
    without constant, zero and repeated generators."""
    rng = Random(42)
    for ideal in _random_ideals(Random(43), 60):
        _assert_same_elements(list(ideal.generators))
    for _ in range(100):
        _assert_same_elements(_random_generators(rng))
    for gens in _degenerate_ideals().values():
        _assert_same_elements(gens)
    assert _assert_same_elements([HomogeneousPolynomial.constant(3)]) == [(0, 1, [])]
    assert _assert_same_elements([]) == []


def test_packed_buchberger_gives_the_tuple_elements_on_the_section_cuts():
    """The certifying runs of the section route, given up or run to the end."""
    given_up = finished = 0
    for gens in _section_cases():
        if not gens or any(g.degree == 0 for g in gens):
            continue
        cuts = [groebner._section_cut(g) for g in gens] + [HomogeneousPolynomial.variable(3)]
        given_up += _assert_same_elements(cuts, give_up=True) is None
        _assert_same_elements(cuts)
        finished += 1
    assert finished >= 100 and given_up >= 5


def test_packed_buchberger_gives_the_tuple_elements_on_the_hilbert_pool():
    pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data"
                       / "hilbert_pool.json").read_text())["ideals"]
    assert len(pool) == 240
    for entry in pool:
        _assert_same_elements(_ideal(*entry["text"].splitlines()).generators)


def test_buchberger_and_normal_form_refuse_a_degree_over_the_packing_cap():
    """No polynomial over the cap is made, so none reaches buchberger or
    normal_form; one at the cap is divided, and Buchberger refuses an
    S-polynomial over it."""
    top = groebner.MAX_DEGREE
    edge = HomogeneousPolynomial.from_term((top, 0, 0, 0))
    y = HomogeneousPolynomial.variable(1)
    message = f"total degree {top + 1} exceeds the degree cap {top}$"
    with pytest.raises(ResourceLimitError, match=f"^from_term: {message}"):
        HomogeneousPolynomial.from_term((top + 1, 0, 0, 0))
    with pytest.raises(ResourceLimitError, match=f"^polynomial product: {message}"):
        edge * y
    with pytest.raises(ResourceLimitError, match=f"^multiply_monomial: {message}"):
        y.multiply_monomial((top, 0, 0, 0))
    assert buchberger([edge, y]) == [y, edge]
    below = HomogeneousPolynomial.from_term((top - 1, 1, 0, 0))
    assert normal_form(edge - below, [y]) == edge
    # the S-polynomial of z0^(top-1)*z1 and z1*z2^(top-1) has degree 2*top - 1
    gens = [below, HomogeneousPolynomial.from_term((0, 1, top - 1, 0))]
    with pytest.raises(ResourceLimitError,
                       match=f"^buchberger: S-polynomial of degree {2 * top - 1} exceeds "
                             f"degree cap {top}$"):
        buchberger(gens)


@lru_cache(maxsize=None)
def _former_hilbert_numerator(gens: tuple) -> tuple:
    """The former groebner._hilbert_numerator, one unit of the pivot
    variable per level, verbatim but for its name and its helpers' (the
    tuple copies above)."""
    gens = _tuple_minimalize(gens)
    if not gens:
        return ((0, 1),)
    if ONE_MONO in gens:
        return ()
    pure = all(len(_tuple_support(g)) == 1 for g in gens)
    if pure:
        coeffs = {0: 1}
        for g in gens:
            d = mono_degree(g)
            nxt = dict(coeffs)
            for a, c in coeffs.items():
                nxt[a + d] = nxt.get(a + d, 0) - c
            coeffs = {a: c for a, c in nxt.items() if c}
        return tuple(sorted(coeffs.items()))
    counts = [0] * NVARS
    for g in gens:
        if len(_tuple_support(g)) > 1 or max(g) > 1:
            for i in _tuple_support(g):
                counts[i] += 1
    v = max(range(NVARS), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(NVARS))
    colon = []
    for g in gens:
        if g[v] > 0:
            colon.append(tuple(e - 1 if i == v else e for i, e in enumerate(g)))
        else:
            colon.append(g)
    plus = [g for g in gens if g[v] == 0] + [pivot]
    res = {}
    for a, c in _former_hilbert_numerator(_tuple_minimalize(tuple(plus))):
        res[a] = res.get(a, 0) + c
    for a, c in _former_hilbert_numerator(_tuple_minimalize(tuple(colon))):
        res[a + 1] = res.get(a + 1, 0) + c
    return tuple(sorted((a, c) for a, c in res.items() if c))


@lru_cache(maxsize=None)
def _former_regularity_bound(gens: tuple) -> int:
    """The former groebner._regularity_bound, verbatim but for its name and
    its helpers' (the tuple copies above)."""
    gens = _tuple_minimalize(gens)
    if not gens or ONE_MONO in gens:
        return 0
    mixed = [g for g in gens if len(_tuple_support(g)) > 1]
    if not mixed:
        return sum(mono_degree(g) - 1 for g in gens)
    counts = [0] * NVARS
    for g in mixed:
        for i in _tuple_support(g):
            counts[i] += 1
    v = max(range(NVARS), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(NVARS))
    colon = tuple(
        tuple(e - 1 if i == v else e for i, e in enumerate(g)) if g[v] > 0 else g
        for g in gens
    )
    plus = tuple([g for g in gens if g[v] == 0] + [pivot])
    return max(_former_regularity_bound(_tuple_minimalize(colon)) + 1,
               _former_regularity_bound(_tuple_minimalize(plus)))


def test_monomial_recursions_pivoting_on_a_power_match_the_unit_steps():
    """Seeded monomial ideals with exponents up to 6: the same numerator and
    the same regularity bound as one unit of the pivot variable per level."""
    rng = Random(44)
    deep = 0
    for _ in range(400):
        gens = tuple(tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 6))) for _ in range(NVARS))
                     for _ in range(rng.randint(1, 6)))
        gens = _tuple_minimalize(gens)
        assert _packed_numerator(gens) == _former_hilbert_numerator(gens)
        assert _packed_regularity_bound(gens) == _former_regularity_bound(gens)
        deep += any(len(_tuple_support(g)) > 1 and max(g) > 2 for g in gens)
    assert deep >= 100


@lru_cache(maxsize=None)
def _entry_minimalizing_numerator(gens: tuple) -> tuple:
    """The groebner._hilbert_numerator that minimalized its argument at
    entry and again for each child's cache key, verbatim but for its name
    and its helpers' (the tuple copies above)."""
    gens = _tuple_minimalize(gens)
    if not gens:
        return ((0, 1),)
    if ONE_MONO in gens:
        return ()
    mixed = [g for g in gens if len(_tuple_support(g)) > 1]
    if not mixed:
        coeffs = {0: 1}
        for g in gens:
            d = mono_degree(g)
            nxt = dict(coeffs)
            for a, c in coeffs.items():
                nxt[a + d] = nxt.get(a + d, 0) - c
            coeffs = {a: c for a, c in nxt.items() if c}
        return tuple(sorted(coeffs.items()))
    v, k, colon = _tuple_pivot(gens, mixed)
    plus = [g for g in gens if g[v] == 0] + [tuple(k if i == v else 0 for i in range(NVARS))]
    res = {}
    for a, c in _entry_minimalizing_numerator(_tuple_minimalize(tuple(plus))):
        res[a] = res.get(a, 0) + c
    for a, c in _entry_minimalizing_numerator(_tuple_minimalize(colon)):
        res[a + k] = res.get(a + k, 0) + c
    return tuple(sorted((a, c) for a, c in res.items() if c))


@lru_cache(maxsize=None)
def _entry_minimalizing_regularity_bound(gens: tuple) -> int:
    """The groebner._regularity_bound that minimalized its argument at
    entry and again for each child's cache key, verbatim but for its name
    and its helpers' (the tuple copies above)."""
    gens = _tuple_minimalize(gens)
    if not gens or ONE_MONO in gens:
        return 0
    mixed = [g for g in gens if len(_tuple_support(g)) > 1]
    if not mixed:
        return sum(mono_degree(g) - 1 for g in gens)
    v, k, colon = _tuple_pivot(gens, mixed)
    plus = tuple(g for g in gens if g[v] == 0) + (tuple(int(i == v) for i in range(NVARS)),)
    return max(_entry_minimalizing_regularity_bound(_tuple_minimalize(colon)) + k,
               _entry_minimalizing_regularity_bound(_tuple_minimalize(plus)) + k - 1)


def test_monomial_recursions_minimalizing_once_per_node_match_the_former_ones():
    """Seeded monomial ideals, minimal and not (repeats, multiples, 1 and
    the empty list), in shuffled order: the same numerator and regularity
    bound as when every node minimalized its argument twice."""
    rng = Random(45)
    redundant = 0
    for _ in range(400):
        gens = [tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 6))) for _ in range(NVARS))
                for _ in range(rng.randint(0, 7))]
        if gens and rng.random() < 0.5:
            g = rng.choice(gens)
            gens.append(rng.choice((g, mono_mul(g, rng.choice(gens)))))
        rng.shuffle(gens)
        gens = tuple(gens)
        redundant += len(_tuple_minimalize(gens)) < len(gens)
        assert (sorted(map(_unpack, groebner._minimalize(map(_pack, gens))))
                == list(_tuple_minimalize(gens)))
        assert _packed_numerator(gens) == _entry_minimalizing_numerator(gens)
        assert _packed_regularity_bound(gens) == _entry_minimalizing_regularity_bound(gens)
    assert redundant >= 100
    staircase = tuple((i, 40 - i, 0, 0) for i in range(41))
    assert _packed_numerator(staircase) == _entry_minimalizing_numerator(staircase)
    assert (_packed_regularity_bound(staircase)
            == _entry_minimalizing_regularity_bound(staircase))


def test_staircase_lead_ideal_and_hilbert_data_have_their_closed_forms():
    """The n + 1 monomials x^i*y^(n-i) generate (x, y)^n: HS(S/I)*(1-t)^4 is
    1 - (n+1) t^n + n t^(n+1), and the bound is reg(S/I) = n - 1."""
    n = 60
    ideal = _ideal(*(f"z0^{i}*z1^{n - i}" for i in range(n + 1)))
    assert ideal.hilbert_numerator() == {0: 1, n: -(n + 1), n + 1: n}
    assert ideal.regularity_bound() == n - 1
    assert ideal.lead_ideal() == tuple(sorted((i, n - i, 0, 0) for i in range(n + 1)))
    assert not ideal.is_unit_ideal()


def test_packed_degree_tables_keep_the_order_of_the_tuple_tables():
    for k in range(13):
        assert [_unpack(m) for _, m in _degree_basis([0], k)] == list(monomials_of_degree(k))
    twists = [0, -1, -3, 2]
    for e in range(-2, 6):
        assert ([(slot, _unpack(m)) for slot, m in _degree_basis(twists, e)]
                == _tuple_degree_basis(twists, e))


def test_packed_element_rebuilds_the_tuple_elements():
    """The same polynomials, term order included, from seeded columns of
    ints and Fractions over a few twists and degrees: the tuple oracle takes
    the column as it is, _element the column cleared, over den times the
    denominator that clears it."""
    rng = Random(46)
    built = 0
    for _ in range(40):
        twists = [rng.randint(-3, 1) for _ in range(rng.randint(1, 4))]
        e = rng.randint(0, 5)
        basis = _degree_basis(twists, e)
        if not basis:
            continue
        vec = {i: rng.choice((rng.randint(-5, 5) or 1, Fraction(rng.randint(1, 7), 3)))
               for i in rng.sample(range(len(basis)), rng.randint(1, min(6, len(basis))))}
        den = rng.choice((1, 2, 6))
        cleared_by = lcm(*(Fraction(x).denominator for x in vec.values()))
        mine = _element(_cleared_vector(vec), basis, den * cleared_by)
        theirs = _tuple_element(vec, _tuple_degree_basis(twists, e), twists, e, den)
        assert {slot: (p.degree, list(p.terms.items())) for slot, p in mine.items()} == {
            slot: (p.degree, list(p.terms.items())) for slot, p in theirs.items()}
        built += 1
    assert built >= 30


# ---------------------------------------------------------------------------
# the exponent refusal of the section route and the degree lists of pairs

HILBERT_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "hilbert_pool.json"
RAO_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "rao_pool.json"


def _former_section_numerator(generators):
    """The former groebner._section_numerator, which cut every form it
    could, verbatim but for the groebner. prefixes and line breaks."""
    degrees = [g.degree for g in generators]
    if (not 0 < len(degrees) <= 3 or min(degrees) < 1
            or max(degrees) > groebner.MAX_SECTION_DEGREE):
        return None
    elements = groebner._groebner_elements(
        [groebner._section_cut(g) for g in generators] + [groebner._Z3], give_up=True)
    if elements is None:
        return None
    lead = groebner._minimalize(e[0] for e in elements)
    if dict(groebner._minimal_numerator(lead)) != groebner._ci_numerator(degrees + [1]):
        return None
    return dict(sorted(groebner._ci_numerator(degrees).items()))


def _planted_section_cases():
    """Seeded (forms, |A|): 1 to 3 forms of degree 1 to 4.  In most draws
    every monomial of every form has a positive exponent at some index of a
    planted set A of 1 to 3 indices (a coordinate plane, line or point);
    now and then the forms share a variable factor (|A| = 1) or a dense
    linear one, which no exponent shows (|A| = 0); the rest plant nothing."""
    rng = Random(47)
    for _ in range(200):
        r = rng.randint(1, 3)
        roll = rng.random()
        if roll < 0.6:
            A = rng.sample(range(NVARS), rng.randint(1, 3))
        elif roll < 0.75:
            A = [rng.randrange(NVARS)]
        else:
            A = []
        factor = _dense_form(rng, 1) if 0.75 <= roll < 0.9 else None
        gens = []
        for _ in range(r):
            deg = rng.randint(1, 4)
            form = (_dense_form if rng.random() < 0.4 else _sparse_form)
            if factor is not None:
                gens.append(factor * form(rng, deg - 1))
            elif not A:
                gens.append(form(rng, deg))
            elif roll < 0.6:
                terms = [HomogeneousPolynomial.variable(a) * form(rng, deg - 1) for a in A]
                gens.append(sum(terms[1:], terms[0]))
            else:
                gens.append(HomogeneousPolynomial.variable(A[0]) * form(rng, deg - 1))
        gens = [g for g in gens if g]
        if gens:
            yield gens, len(A)


def test_exponent_refusal_agrees_with_the_former_section_route(monkeypatch):
    """A refusal, None before any form is cut, only where the former route
    also returned None, and the former value everywhere.  A set A of as
    many indices as forms is no certificate: such forms are still cut, and
    some certify."""
    cuts = []
    real = groebner._section_cut
    monkeypatch.setattr(groebner, "_section_cut", lambda g: cuts.append(g) or real(g))
    seen = {"refused": 0, "certified": 0, "certified with |A| = r": 0, "fell back": 0}
    for gens, planted in _planted_section_cases():
        cuts.clear()
        got = groebner._section_numerator(gens)
        refused = not cuts
        assert got == _former_section_numerator(gens)
        if refused:
            assert got is None
            seen["refused"] += 1
        elif got is not None:
            seen["certified"] += 1
            seen["certified with |A| = r"] += planted == len(gens)
        else:
            seen["fell back"] += 1
    assert seen["refused"] >= 40 and seen["certified"] >= 100, seen
    assert seen["certified with |A| = r"] >= 20 and seen["fell back"] >= 10, seen


def test_exponent_refusal_refuses_exactly_the_curves_of_the_hilbert_pool(monkeypatch):
    """The 27 pool ideals that are no complete intersection all vanish on a
    coordinate line and are refused without a cut; the section still
    certifies 209 of the other 213."""
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    cuts = []
    real = groebner._section_cut
    monkeypatch.setattr(groebner, "_section_cut", lambda g: cuts.append(g) or real(g))
    refused = certified = 0
    for entry in pool:
        ideal = _ideal(*entry["text"].splitlines())
        cuts.clear()
        got = groebner._section_numerator(ideal.generators)
        if not cuts:
            assert got is None and ideal.hilbert_polynomial().degree() == 1
            assert ideal.hilbert_numerator() != _sorted_ci_numerator(ideal.generators)
            refused += 1
        certified += got is not None
    assert (refused, certified) == (27, 209)


def _heap_groebner_elements(generators, pair_cap: int = DEFAULT_PAIR_CAP, give_up: bool = False):
    """The former groebner._groebner_elements, one heap of pairs and a set
    of pending pairs, verbatim but for the groebner. prefixes, line breaks,
    polyring.mono_degree for the former groebner._degree, and the packed
    terms read from _cleared for the removed groebner._packed_terms."""
    gens = [g for g in generators if g]
    if any(g.degree == 0 for g in gens):
        return [(0, 1, [])]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    for g in sorted(gens, key=lambda g: degrevlex_key(g.lead_monomial())):
        r, _ = groebner._divide(dict(g._cleared[1]), basis)
        if r:
            basis.append(groebner._basis_element(r))

    lead = [e[0] for e in basis]
    pending = set()
    queue = []  # heap of (lcm degree, -lcm, pair): lcm ascending in degrevlex

    def add_pairs(new):
        for k in range(new):
            top = groebner._lcm(lead[k], lead[new])
            pending.add((k, new))
            heappush(queue, (polyring.mono_degree(top), -top, k, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    # the bound takes the kept generators: they generate I, and are no more
    numerator = (groebner._ci_numerator(polyring.mono_degree(m) for m in lead)
                 if len(gens) <= 4 else None)
    standard, std_degree, bound = {0}, 0, None  # standard monomials of std_degree
    walked = 0
    processed = 0
    while queue:
        degree, _, i, j = heappop(queue)
        pending.discard((i, j))
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(
                f"buchberger, degree {degree}: pair cap {pair_cap} exceeded")
        if numerator is not None:
            while std_degree < degree and walked <= groebner.MAX_STANDARD_WALK:
                if give_up and bound is not None and len(standard) > bound:
                    return None
                walked += len(standard)
                std_degree += 1
                standard = groebner._next_standard(
                    standard, {m for m in lead if polyring.mono_degree(m) == std_degree})
                bound = groebner._ci_hilbert_function(numerator, std_degree)
            if std_degree == degree and len(standard) == bound:
                continue
        if not groebner._nonzero_fields(lead[i]) & groebner._nonzero_fields(lead[j]):
            continue  # coprime leads
        top = groebner._lcm(lead[i], lead[j])
        chained = False
        for k, other in enumerate(lead):
            q = top - other
            if q < 0 or q & groebner._GUARD or k == i or k == j:  # not _divides(other, top)
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                chained = True
                break
        if chained:
            continue
        if degree > groebner.MAX_DEGREE:
            raise ResourceLimitError(
                f"buchberger: S-polynomial of degree {degree} exceeds degree cap "
                f"{groebner.MAX_DEGREE}")
        r, _ = groebner._divide(groebner._s_polynomial_terms(basis[i], basis[j]), basis)
        if not r:
            continue
        basis.append(groebner._basis_element(r))
        lead.append(basis[-1][0])
        standard.discard(lead[-1])  # a lead of the pair degree is not standard
        add_pairs(len(basis) - 1)
    return basis


def _elements_or_message(run, gens, **kw):
    """The elements run(gens, **kw) returns, or the message of the
    ResourceLimitError it raises."""
    try:
        return run(gens, **kw)
    except ResourceLimitError as exc:
        return str(exc)


def _both_routes(gens):
    """(generators, give_up) of the four-variable run and of the certifying
    run on the section."""
    cuts = [groebner._section_cut(g) for g in gens] + [HomogeneousPolynomial.variable(3)]
    return [(gens, False), (cuts, True)]


def _rao_pool_ideals():
    pool = json.loads(RAO_POOL.read_text())
    entries = (pool["degree2"] + pool["degree2_special"] + pool["degree3"]
               + [pool["pencil"], pool["warmup"]])
    contact = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"
    return [singular_ideal(wedge(parse_form(e.get("first", contact)), parse_form(e["omega"])))
            for e in entries]


def _assert_same_as_the_heap_queue(monkeypatch, gens, give_up=False):
    """Equal element lists, and the same S-polynomials divided in the same
    order: the pair sequence is unchanged.  Returns the elements."""
    divided = []
    real = groebner._s_polynomial_terms
    with monkeypatch.context() as m:
        m.setattr(groebner, "_s_polynomial_terms",
                  lambda e, f: divided.append((e[0], f[0])) or real(e, f))
        new = groebner._groebner_elements(gens, give_up=give_up)
        mine, divided[:] = divided[:], []
        assert new == _heap_groebner_elements(gens, give_up=give_up)
    assert mine == divided
    return new


def test_degree_lists_give_the_heap_queue_elements_on_the_pools(monkeypatch):
    """Every hilbert-pool ideal on both routes and every singular ideal of
    the rao pool."""
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    given_up = 0
    for entry in pool:
        for gens, give_up in _both_routes(list(_ideal(*entry["text"].splitlines()).generators)):
            given_up += _assert_same_as_the_heap_queue(monkeypatch, gens, give_up) is None
    assert given_up >= 27
    ideals = _rao_pool_ideals()
    assert len(ideals) >= 60
    for ideal in ideals:
        _assert_same_as_the_heap_queue(monkeypatch, list(ideal.generators))


# the chain criterion meets a lead k between i and j whose pair with i has
# the lcm of (i, j): (i, k) is processed though (j, k) waits; three ideals
# out of 3000 seeded draws of two to six sparse forms
CHAIN_ORDER_CASES = [
    ["3*z0*z1*z2 + 3*z2^3 - 3*z0^2*z3", "-2*z0^2 + 3*z1^2 + z0*z3",
     "z0*z2^2 - 2*z2^3 + 2*z1^2*z3", "-z0*z3^2", "-2*z2^2*z3 + z0*z3^2 + 3*z3^3"],
    ["-2*z3^3", "-2*z1*z3^2", "3*z1*z2^2 + 3*z3^3", "2*z0*z2 + 2*z2*z3",
     "2*z0^2*z1 + z0*z1^2", "-2*z0^2*z3"],
    ["2*z2^3", "z0*z3", "z0*z1*z2 - 3*z2*z3^2", "-2*z0*z1^2 + z2^3 - 2*z1^2*z3"],
]


def test_degree_lists_give_the_heap_queue_elements_on_random_ideals(monkeypatch):
    rng = Random(48)
    cases = [list(_ideal(*exprs).generators) for exprs in CHAIN_ORDER_CASES]
    cases += [list(ideal.generators) for ideal in _random_ideals(Random(49), 60)]
    cases += [_random_generators(rng) for _ in range(100)]
    cases += list(_degenerate_ideals().values()) + _dense_complete_intersections()[:8]
    cases += [gens for gens in _section_cases() if gens]
    for gens in cases:
        _assert_same_as_the_heap_queue(monkeypatch, gens)
    assert len(cases) >= 250


def test_degree_lists_raise_the_heap_queue_pair_cap_errors():
    """At the smallest pair cap that finishes, one below it and seeded caps
    under it, most of them inside a degree the Hilbert bound drops at once:
    the same elements or the same message, on hilbert-pool ideals on both
    routes and on degenerate ideals."""
    rng = Random(50)
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    cases = []
    for entry in pool[:240:40]:
        cases += _both_routes(list(_ideal(*entry["text"].splitlines()).generators))
    cases += [(gens, False) for gens in _degenerate_ideals().values()]
    raised = 0
    for gens, give_up in cases:
        needed = _smallest_pair_cap(partial(groebner._groebner_elements, give_up=give_up), gens)
        for cap in {needed, needed - 1, *rng.sample(range(needed), min(needed, 6))}:
            new = _elements_or_message(groebner._groebner_elements, gens, pair_cap=cap, give_up=give_up)
            assert new == _elements_or_message(_heap_groebner_elements, gens, pair_cap=cap, give_up=give_up)
            raised += isinstance(new, str)
    assert len(cases) == 16 and raised >= 70


def _smallest_pop_budget(monkeypatch, gens):
    """The fewest heap pops _groebner_elements(gens) needs, by bisection on
    MAX_BUCHBERGER_POPS."""
    lo, hi = 0, groebner.MAX_BUCHBERGER_POPS
    with monkeypatch.context() as m:
        while lo < hi:
            mid = (lo + hi) // 2
            m.setattr(groebner, "MAX_BUCHBERGER_POPS", mid)
            if isinstance(_elements_or_message(groebner._groebner_elements, gens), str):
                lo = mid + 1
            else:
                hi = mid
    return lo


def test_buchberger_work_cap_counts_the_pops_of_every_division_in_a_call(monkeypatch):
    """The hilbert-pool ideal the cap's comment names needs 2098 heap pops,
    the cap is well above it, and one pop fewer raises ResourceLimitError
    naming the degree; division outside Buchberger has no cap."""
    pool = json.loads(HILBERT_POOL.read_text())["ideals"]
    gens = list(_ideal(*pool[103]["text"].splitlines()).generators)
    assert _smallest_pop_budget(monkeypatch, gens) == 2098
    assert groebner.MAX_BUCHBERGER_POPS >= 20 * 2098
    monkeypatch.setattr(groebner, "MAX_BUCHBERGER_POPS", 2097)
    message = _elements_or_message(groebner._groebner_elements, gens)
    assert re.fullmatch(r"buchberger, degree \d+: divisions exceed the work cap of 2097 "
                        r"heap pops", message), message
    monkeypatch.setattr(groebner, "MAX_BUCHBERGER_POPS", 0)
    with pytest.raises(ResourceLimitError, match="^buchberger, degree 4: divisions exceed"):
        GradedIdeal(gens).lead_ideal()
    assert normal_form(gens[0] * gens[1], gens[:2]).is_zero()


# ---------------------------------------------------------------------------
# the downward Rao walk and its proven lower end


def _former_rao_module_dimensions(ideal, window=None):
    """The former groebner.rao_module_dimensions, which walked the window
    upward from its low end until the piece of F_3^* vanished, verbatim but
    for the groebner. prefixes and the docstring."""
    ideal._basis_elements()  # the resolution needs the basis: no section is cut first
    P = ideal.hilbert_polynomial()
    if P.degree() != 1:
        raise NotACurveError("the ideal does not cut out a curve")
    if window is None:
        window = resolution.default_rao_window(ideal)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")

    res = resolution.minimal_free_resolution(ideal)
    profile = {}
    if res.length() >= 3:
        t2, t3 = res.twists[2], res.twists[3]
        t4 = res.twists[4] if res.length() >= 4 else []
        d3 = res.differentials[2]
        d4 = res.differentials[3] if res.length() >= 4 else []
        for k in range(lo, hi + 1):
            dim2, dim3, dim4 = (sum(graded_piece_dimension(-b - 4 - k) for b in t)
                                for t in (t2, t3, t4))
            if dim3 == 0:
                break  # the pieces only shrink as k grows
            if max(dim2, dim3, dim4) > resolution.MAX_DUAL_PIECE:
                raise ResourceLimitError(
                    f"Rao twist {k}: a dual-map piece of dimension "
                    f"{max(dim2, dim3, dim4)} exceeds the cap {resolution.MAX_DUAL_PIECE}"
                )
            rank4 = resolution._dual_map_rank(t3, t4, d4, k) if t4 else 0
            rank3 = resolution._dual_map_rank(t2, t3, d3, k)
            h = dim3 - rank4 - rank3
            if h < 0:
                raise ResourceLimitError(f"Rao twist {k}: negative cohomology dimension {h}")
            if h:
                profile[k] = h
    if profile.get(lo) or profile.get(hi):
        raise WindowTooSmallError(
            f"nonzero value at a window endpoint of [{lo}, {hi}]"
        )
    return resolution.RaoProfile(profile=profile, total=sum(profile.values()), window=(lo, hi))


def _rao_or_error(run, ideal, window):
    """run(ideal, window).to_json(), or the type of the error it raises."""
    try:
        return run(ideal, window).to_json()
    except (ResourceLimitError, WindowTooSmallError) as exc:
        return type(exc)


def test_rao_walk_down_gives_the_former_profiles_and_stops_soundly(monkeypatch):
    """The downward walk answers what the former upward walk answered, the
    profile or the error type, over the default window, (0, 5) and
    (-2, 10^8), on every singular ideal of the rao pool (the warm-up too),
    legendrian samples of degree 2 to 5, two skew lines with and without a
    redundant generator, random complete-intersection curves, a line with
    an embedded point and the skew lines' ideal truncated in degree 3, which
    is not saturated (F_4 != 0).  Where the walk stops above the window's
    low end, the stop is a certificate: the transposed d_3 is onto its piece
    at the stop and at every lower twist of the window, each rank taken in
    full.  With F_4 != 0 the walk never stops early."""
    skew = _ideal(*SKEW)
    redundant = GradedIdeal(
        list(skew.generators) + [parse_polynomial("z1*z3^3") * skew.generators[0]])
    truncated = _ideal(*(f"z{v}*{s}" for v in range(NVARS) for s in SKEW))
    ideals = _rao_pool_ideals()
    ideals += [legendrian_sample(d, Random(seed)).ideal for d in range(2, 6) for seed in range(3)]
    ideals += [skew, redundant, _ideal("z1", "z0^2", "z0*z2"), truncated]
    ideals += [verification._random_ci_curve(Random(seed)) for seed in range(6)]
    walked = []
    real_rank = resolution._dual_map_rank
    monkeypatch.setattr(resolution, "_dual_map_rank",
                        lambda *args: walked.append(args[3]) or real_rank(*args))
    resolutions = {}  # by id: each ideal is resolved once, both walks read it
    monkeypatch.setattr(resolution, "minimal_free_resolution",
                        lambda ideal: resolutions[id(ideal)])
    outcomes = {"profile": 0, "error": 0}
    stops = certified = unstoppable = 0
    for ideal in ideals:
        res = resolutions[id(ideal)] = minimal_free_resolution(ideal)
        for window in (None, (0, 5), (-2, 10 ** 8)):
            walked.clear()
            got = _rao_or_error(rao_module_dimensions, ideal, window)
            mine = walked[:]
            assert got == _rao_or_error(_former_rao_module_dimensions, ideal, window)
            outcomes["profile" if isinstance(got, dict) else "error"] += 1
            lo = (window or resolution.default_rao_window(ideal))[0]
            if res.length() == 4:
                assert min(mine) == lo
                unstoppable += 1
            if not mine or min(mine) == lo:
                continue
            # the walk stopped above lo: every twist from there down is onto
            assert res.length() == 3
            t2, t3, d3 = res.twists[2], res.twists[3], res.differentials[2]
            assert min(mine) <= min(-b - 4 for b in t3)
            stops += 1
            for k in range(min(mine), lo - 1, -1):
                dim3 = sum(graded_piece_dimension(-b - 4 - k) for b in t3)
                assert real_rank(t2, t3, d3, k) == dim3, (k, dim3)
                certified += 1
    assert len(ideals) == 97 and outcomes == {"profile": 284, "error": 7}, outcomes
    assert (stops, certified, unstoppable) == (197, 749, 3)


def test_rao_walk_waits_until_every_summand_of_f3_dual_is_generated(monkeypatch):
    """An onto twist above min(-b - 4) is no stop.  A minimal resolution
    reaches one only when its Rao module has a gap; this tail makes one
    with a unit entry instead: F_3 = S(-7) + S(-4), d_3 sends the S(-7)
    generator to 1 on an S(-7) of F_2 and the S(-4) generator to z0..z3 on
    four S(-3).  The transposed d_3 is onto at twists 3, 2 and 1, where the
    S(4) summand of F_3^* has no piece yet, misses its generator at twist 0
    (h = 1) and is onto again from twist -1, where the walk stops."""
    tail = FreeResolution(
        twists=[[0], [], [-7] + [-3] * NVARS, [-7, -4]],
        differentials=[[], [], [{0: parse_polynomial("1")},
                                {1 + i: HomogeneousPolynomial.variable(i) for i in range(NVARS)}]],
        bound=0)
    walked = []
    real_rank = resolution._dual_map_rank
    monkeypatch.setattr(resolution, "minimal_free_resolution", lambda ideal: tail)
    monkeypatch.setattr(resolution, "_dual_map_rank",
                        lambda *args: walked.append(args[3]) or real_rank(*args))
    assert rao_module_dimensions(_ideal(*SKEW), window=(-3, 4)).profile == {0: 1}
    assert walked == [3, 2, 1, 0, -1]
