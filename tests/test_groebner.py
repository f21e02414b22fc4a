"""Groebner engine: bases, Hilbert data, syzygies, resolutions, Rao profiles."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from folcurves import cli, groebner
from folcurves.errors import (
    DegreeMismatchError,
    NotACurveError,
    ResourceLimitError,
    WindowTooSmallError,
)
from folcurves.groebner import (
    DEFAULT_PAIR_CAP,
    FreeResolution,
    GradedIdeal,
    _degree_basis,
    _dual_map_rank,
    buchberger,
    curve_invariants,
    graded_syzygies,
    minimal_free_resolution,
    normal_form,
    rao_module_dimensions,
    s_polynomial,
)
from folcurves.linalg import Echelon, kernel_of_columns
from folcurves.polyring import (
    HomogeneousPolynomial,
    NVARS,
    degrevlex_key,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    monomials_of_degree,
    parse_polynomial,
)

SKEW = ["z0*z2", "z0*z3", "z1*z2", "z1*z3"]


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
            ech.insert({i: c for i, c in vec.items() if c})
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
    assert res.betti_json() == {
        "betti": [[0, [0]], [1, [-2, -2, -2, -2]], [2, [-3, -3, -3, -3]], [3, [-4]]]
    }


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


@pytest.mark.parametrize("gens, where", [
    (["z0^2 + z1*z2 - z3^2", "z0*z1 + z2^2 - z0*z3"], "layer 2, degree 4"),
    (SKEW, "layer 1, degree 2"),
], ids=["quadrics", "skew-lines"])
def test_resolution_safety_margin_fires_on_an_underestimated_bound(monkeypatch, gens, where):
    true_bound = GradedIdeal.regularity_bound
    monkeypatch.setattr(GradedIdeal, "regularity_bound", lambda self: true_bound(self) - 1)
    with pytest.raises(ResourceLimitError, match=f"^{where}: .*safety margin degree"):
        minimal_free_resolution(_ideal(*gens))


def test_resolution_rejects_low_bound_and_unit_ideal():
    with pytest.raises(ValueError):
        minimal_free_resolution(_ideal(*SKEW), degree_bound=3)
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


def _loop_minimal_free_resolution(ideal: GradedIdeal, degree_bound=None) -> FreeResolution:
    """Minimal graded free resolution of S/I, complete in degrees <= bound."""
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    maxdeg = ideal.max_generator_degree()
    regb = ideal.regularity_bound()
    if degree_bound is None:
        bound = regb + 6
    else:
        if degree_bound < maxdeg + 4:
            raise ValueError("degree bound must be at least max generator degree + 4")
        bound = degree_bound
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
                ech.insert({index[mm]: c for mm, c in shifted.terms.items()})
        for m in monos_e:
            f = reduced_element(m)
            if ech.insert({index[mm]: c for mm, c in f.terms.items()}) is not None:
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
            col_meta = _degree_basis(prev_twists, e)
            col_index = {key: i for i, key in enumerate(col_meta)}
            row_meta = _degree_basis(below_twists, e)
            row_index = {key: i for i, key in enumerate(row_meta)}
            columns = []
            for slot, m in col_meta:
                vec = {}
                for target, poly in prev_cols[slot].items():
                    for pm, pc in poly.terms.items():
                        vec[row_index[(target, mono_mul(pm, m))]] = pc
                columns.append(vec)
            kernel = kernel_of_columns(columns)
            ech_old = Echelon()
            for z in prev_kernel:
                for v in range(NVARS):
                    mv = tuple(1 if i == v else 0 for i in range(NVARS))
                    shifted = {}
                    for ci, c in z.items():
                        slot, m = prev_col_meta[ci]
                        shifted[col_index[(slot, mono_mul(m, mv))]] = c
                    ech_old.insert(shifted)
            for z in kernel:
                if ech_old.insert(z) is None:
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
        lead = groebner._minimalize(tuple(g.lead_monomial() for g in gb))
        assert ideal.lead_ideal() == lead
        assert ideal.is_unit_ideal() == (bool(gb) and gb[0].degree == 0)
        assert ideal.hilbert_numerator() == dict(groebner._hilbert_numerator(lead))
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
                r, mult = groebner._divide({m[::-1]: 1}, elements)
                mine = [(rm[::-1], Fraction(c, mult)) for rm, c in r.items()]
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
            ech.insert({c: v for c, v in vec.items() if v})
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
            m.setattr(groebner, "_ci_hilbert_function", lambda degrees, d: -1)  # never met
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
    def refuse(degrees, d):
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
        for d in range(max(degrees) + 7):
            assert ideal.hilbert_function(d) >= groebner._ci_hilbert_function(degrees, d)
        checked += 1
    assert checked >= 60
    for gens in _dense_complete_intersections():
        ideal = GradedIdeal(gens)
        degrees = [g.degree for g in gens]
        values = [ideal.hilbert_function(d) for d in range(max(degrees) + 7)]
        assert values == [groebner._ci_hilbert_function(degrees, d)
                          for d in range(max(degrees) + 7)]
    assert [groebner._ci_hilbert_function((2, 3), d) for d in range(6)] == [1, 4, 9, 15, 21, 27]
    assert [groebner._ci_hilbert_function((2, 2, 2, 2), d) for d in range(6)] == [
        1, 4, 6, 4, 1, 0]


def test_buchberger_errors_name_the_stage():
    gens = [parse_polynomial("z0*z1 - z2*z3"), parse_polynomial("z0^2")]
    with pytest.raises(ResourceLimitError, match=r"^buchberger, degree 3: pair cap 0 exceeded$"):
        buchberger(gens, pair_cap=0)
    with pytest.raises(ResourceLimitError,
                       match=r"^buchberger: S-polynomial of degree 3 exceeds degree cap 2$"):
        buchberger(gens, degree_cap=2)
    assert len(buchberger(gens, degree_cap=5)) == 4


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
    true_rank = groebner._dual_map_rank
    monkeypatch.setattr(groebner, "_dual_map_rank", lambda *args: true_rank(*args) + 1)
    with pytest.raises(ResourceLimitError,
                       match=r"^Rao twist -2: negative cohomology dimension -1$"):
        rao_module_dimensions(_ideal(*SKEW))
