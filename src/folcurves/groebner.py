"""Groebner bases and Hilbert data of homogeneous ideals.

Everything is exact.  The monomial order is fixed to degrevlex.  Hilbert
series of lead-term ideals drive degree and genus.

Monomials are polyring's packed exponent vectors.  No polynomial and no
S-polynomial of Buchberger's exceeds MAX_DEGREE, so their guard bits stay
clear, which divisibility, lcm and coprimality read (see below).

Division and Buchberger run fraction-free over Z.  Basis elements are kept
primitive and S-polynomials are formed with integer cofactors; division is
integer pseudo-division.  No Fraction is made: normal_form returns its
integer remainder over the accumulated multiplier, and buchberger returns
the monic reduced basis, made in one pass from the minimal basis by
_reduced_basis, each element its integer terms over its lead coefficient
(polyring's cleared form).

Most callers never need that reduced basis.  GradedIdeal keeps the
unreduced integer elements Buchberger ends with; the lead ideal, every
Hilbert quantity, the regularity bound and resolution's free resolution
(whose first layer divides by the elements, the normal form being unique)
read only those.  Only groebner_basis, contains and equals build the
reduced basis.

Buchberger also uses Hilbert data (Traverso, "Hilbert functions and the
Buchberger algorithm", J. Symbolic Comput. 22, 1996).  When at most four
nonzero forms of degrees d_i generate I, dim (S/I)_d is at least H_CI(d),
the coefficient of t^d in prod(1 - t^d_i) / (1 - t)^4: dim I_d is the rank
of the map from the sum of the S_(d-d_i) to S_d multiplying by the
generators, a rank can only drop under specialization, and for generic
forms, four or fewer being a regular sequence, the rank gives exactly
H_CI.  Pairs wait in one list per lcm degree, sorted when that degree is
reached, while the degree-d monomials no current lead divides are kept,
advanced one degree at a time; once they number H_CI(d), the leads span
in(I)_d and every pair left in the list reduces to zero, so the rest of the
list is dropped in one step.  With five or more generators the bound would
be Froeberg's conjecture, and no pair is skipped this way.

Hilbert data of up to three forms mostly come without a basis in four
variables; a generic linear section keeps them (Bayer and Stillman,
Invent. Math. 87, 1987).  Take l = z0 + 2*z1 + 3*z2: the hyperplane
z3 = l holds no coordinate point.  hilbert_numerator first cuts each form
f_i to f_i(z0, z1, z2, l), a form in z0..z2, and runs Buchberger on the
cut forms and z3.  These generate the image of I + (z3 - l) under the
change of coordinates z3 -> z3 + l, so the two ideals have one Hilbert
series.  When it is the complete-intersection series of the degrees
d_1, ..., d_r, 1, the answer is certified in three lines:
  - f_1, ..., f_r, z3 - l generate an ideal of height r + 1 (as in
    resolution._koszul_degrees), so they are a regular sequence;
  - a homogeneous regular sequence of positive degrees stays regular in
    any order, so f_1, ..., f_r is one;
  - so HS(S/I) = prod(1 - t^d_i) / (1 - t)^4.
Otherwise the lead ideal of the four-variable basis answers, as it always
does once that basis exists.  With z3 among its generators the certifying
run walks only standard monomials in z0..z2; it gives up at the first
finished degree where they outnumber H_CI, which shows that the cut forms
are no regular sequence.  Forms above MAX_SECTION_DEGREE are never cut: a
sparse form turns dense on the section.  Nor are r forms that all vanish on
a coordinate subspace z_A = 0 with |A| < r, which their exponents show:
their ideal has height at most |A|, so they are no regular sequence.

Graded syzygies, free resolutions and Rao profiles are resolution's, which
this module does not import; each public name of resolution, and
kernel_of_columns, is still read here, through __getattr__ (see there).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, gcd, inf

from .errors import NotACurveError, ResourceLimitError
from .polyring import (
    HomogeneousPolynomial,
    MAX_DEGREE,
    NVARS,
    _FIELD,
    _GUARD,
    _STEPS,
    _from_integers,
    _signed_sum,
    exponent_tuples,
    graded_piece_dimension,
    mono_degree,
    sum_of_products,
)

DEFAULT_PAIR_CAP = 100_000
# Most standard monomials buchberger's Hilbert-driven skip walks through in
# one call; past it no more pairs are skipped in the call, so a pair of huge
# degree (z0*z1 and z1^(10^8)) is not preceded by a walk through every degree
# below it.  The largest any hilbert-pool ideal walks is 1008.
MAX_STANDARD_WALK = 20_000
# Most heap pops the divisions of one _groebner_elements call may make, of
# its generators and S-polynomials together.  The largest any shipped test,
# demo or benchmark input makes is 2098 (a hilbert-pool ideal).  On a 2-vCPU
# x86_64 machine under Python 3.11, (x+y+z)^40, (x+y+t)^40, (y+z+t)^39*x
# reaches the cap in about 0.3 s; it ran past 20 s before there was one.
MAX_BUCHBERGER_POPS = 50_000
# Largest generator degree the section route of hilbert_numerator cuts.  A
# sparse form turns dense on the section: on a 2-vCPU x86_64 machine under
# Python 3.11, z0^d + z3^d, z1^d + z2^d, z2^d - z3^d took 0.08 s to certify
# at d = 8 against 0.005 s for the four-variable route, and 6.7 s against
# 0.02 s at d = 12.  The hilbert-pool ideals have degree 3 or 4.
MAX_SECTION_DEGREE = 8


# ---------------------------------------------------------------------------
# monomial bit tricks
#
# Among monomials of one degree the smallest int is the largest in
# degrevlex, so a min-heap of them hands out terms in descending order.  A
# divisor is never larger than its multiple.  Quotients are -, and d divides
# m when m - d is nonnegative with no guard bit set (the lowest field that
# borrows sets its own); lcm and coprimality treat all four fields at once
# through the guard bits.  The exponent of z_v in m is m >> 32*v & _FIELD.

_LOW = _GUARD - sum(_STEPS)  # 2^31 - 1 in each field


def _divides(d: int, m: int) -> bool:
    q = m - d
    return q >= 0 and not q & _GUARD


def _lcm(a: int, b: int) -> int:
    # the guard bit of a field of (a | GUARD) - b is set where a's exponent
    # is the larger; spread over the field, it picks a's exponent there
    keep = ((a | _GUARD) - b) & _GUARD
    return b ^ ((a ^ b) & (keep - (keep >> 31)))


def _nonzero_fields(p: int) -> int:
    """The guard bits of the fields of p that are nonzero."""
    return (p + _LOW) & _GUARD


# ---------------------------------------------------------------------------
# division and Buchberger, fraction-free over Z
#
# A polynomial is a dict of integer coefficients keyed by packed monomials,
# and a basis element a triple (lead, lead coefficient, tail), built once:
# primitive, with a positive lead coefficient.


def _basis_element(terms: dict):
    """The basis element of nonzero integer terms."""
    lead = min(terms)
    g = 0
    # a loop and a list, not gcd(*values) and a tuple: freed tuples of every
    # length stay on the interpreter's free lists and raise peak memory
    for c in terms.values():
        g = gcd(g, c)
    if terms[lead] < 0:
        g = -g
    return lead, terms[lead] // g, [(m, c // g) for m, c in terms.items() if m != lead]


def _divide(work: dict, table, budget=None):
    """Pseudo-remainder of the integer terms work (consumed) under division
    by a list of basis elements, each term reduced by the first element
    whose lead divides it.

    Returns (remainder, multiplier) with multiplier * work equal to the
    remainder plus multiples of the elements.  Reducing the top term m,
    coefficient c, by lead coefficient a scales work and the remainder so
    far by a/gcd(a, c) and subtracts (c/gcd)·q·g from work, so every
    coefficient stays an integer.  Terms
    brought in lie below m, so a popped monomial no longer in work was
    cancelled and is skipped.

    budget, when given, is Buchberger's: a one-item list holding the heap
    pops its divisions may still make.  Each pop spends one, and the pop
    that overdraws it raises ResourceLimitError naming the degree of the
    work.
    """
    heap = list(work)
    heapify(heap)
    remainder = {}
    mult = 1
    left = inf if budget is None else budget[0]
    while heap:
        m = heappop(heap)
        left -= 1
        if left < 0:
            raise ResourceLimitError(
                f"buchberger, degree {mono_degree(m)}: divisions exceed the work cap of "
                f"{MAX_BUCHBERGER_POPS} heap pops")
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, a, tail in table:
            q = m - lead
            if q >= 0 and not q & _GUARD:
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
                    mm = gm + q
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
    if budget is not None:
        budget[0] = left
    return remainder, mult


def normal_form(f: HomogeneousPolynomial, basis) -> HomogeneousPolynomial:
    """Remainder of f under division by a list of nonzero polynomials."""
    table = [_basis_element(g._cleared[1]) for g in basis if g]
    den, ints = f._cleared
    remainder, mult = _divide(dict(ints), table)
    return _from_integers(f.degree, mult * den, remainder)


def _s_polynomial_terms(e, f) -> dict:
    """Integer terms of (b/g)·(L/lead e)·e - (a/g)·(L/lead f)·f for basis
    elements e and f with lead coefficients a and b, g = gcd(a, b) and L the
    lcm of their leads; the leads cancel."""
    (le, a, te), (lf, b, tf) = e, f
    top = _lcm(le, lf)
    g = gcd(a, b)
    acc = {}
    for lead, tail, scale in ((le, te, b // g), (lf, tf, -(a // g))):
        q = top - lead
        for m, c in tail:
            mm = m + q
            acc[mm] = acc.get(mm, 0) + scale * c
    return {m: c for m, c in acc.items() if c}


def _reduced_basis(basis):
    """The reduced Groebner basis, monic and sorted by ascending lead, from
    a Groebner basis of elements with pairwise distinct leads.

    Dropping every element whose lead another lead divides leaves a minimal
    basis.  Dividing each of its elements once by the others then rewrites
    only the tail, since no other lead divides the lead; the reduced basis
    is unique, so one pass is enough.
    """
    minimal = sorted((e for e in basis
                      if not any(o is not e and _divides(o[0], e[0]) for o in basis)),
                     key=lambda e: (mono_degree(e[0]), -e[0]))  # ascending degrevlex
    out = []
    for e in minimal:
        lead, a, tail = e
        r, _ = _divide({lead: a, **dict(tail)}, [o for o in minimal if o is not e])
        out.append(_from_integers(mono_degree(lead), r[lead], r))
    return out


def _ci_numerator(degrees) -> dict:
    """The nonzero coefficients of prod(1 - t^e for e in degrees), keyed by
    exponent: the numerator of HS(S/I) * (1-t)^4 when forms of these degrees
    are a regular sequence.  Zero coefficients are dropped, as in
    hilbert_numerator ((1-t)^2 (1-t^2) has none at t^2)."""
    numerator = {0: 1}
    for e in degrees:
        shifted = dict(numerator)
        for a, c in numerator.items():
            shifted[a + e] = shifted.get(a + e, 0) - c
        numerator = shifted
    return {a: c for a, c in numerator.items() if c}


def _ci_hilbert_function(numerator, d: int) -> int:
    """Coefficient of t^d in numerator / (1 - t)^4: dim (S/I)_d for the
    hilbert_numerator of I.

    For the _ci_numerator of some degrees it is dim (S/I)_d when forms of
    these degrees are a regular sequence, and a lower bound for it whenever
    at most four forms of these degrees generate I (see the module
    docstring).
    """
    return sum(c * graded_piece_dimension(d - a) for a, c in numerator.items())


def _next_standard(standard, leads):
    """The standard monomials of degree d + 1 from those of degree d: a
    monomial is standard when all its divisors of degree d are and it is
    not itself one of the leads of degree d + 1."""
    hits = {}
    for m in standard:
        for step in _STEPS:
            u = m + step
            hits[u] = hits.get(u, 0) + 1
    # u has one divisor of degree d per nonzero exponent
    return {u for u, n in hits.items()
            if n == _nonzero_fields(u).bit_count() and u not in leads}


def _groebner_elements(generators, pair_cap: int = DEFAULT_PAIR_CAP, give_up: bool = False):
    """A degrevlex Groebner basis of the ideal, as primitive integer basis
    elements with pairwise distinct leads; neither minimal nor reduced.  The
    unit ideal gives [(0, 1, [])] (0 packs the monomial 1), the zero ideal
    [].

    Pairs (k, new), k < new, are processed in the order (lcm degree, lcm
    ascending in degrevlex, k, new) with the product and chain criteria.
    They wait in one list per lcm degree, sorted when that degree is
    reached: a new element's lead has the current degree and no earlier
    lead divides it, so its pairs all have higher lcm degrees.  So a pair
    still waits exactly when it comes after the current one, which the
    chain criterion reads.  With at most four nonzero generators, the rest
    of a degree is dropped at once when the Hilbert bound shows that it
    reduces to zero (see the module docstring); the bound is
    _ci_hilbert_function of the _ci_numerator of the kept generators'
    degrees, computed once per call.

    With give_up it returns None instead at the first finished degree whose
    standard monomials outnumber the bound: that degree shows I is no
    complete intersection of the kept generators.

    Raises ResourceLimitError when more than pair_cap pairs are processed
    (skipped and pruned pairs count), an S-polynomial that no criterion
    pruned exceeds MAX_DEGREE, past which its exponents would not fit their
    packed fields, or the divisions of the call make more than
    MAX_BUCHBERGER_POPS heap pops.
    """
    gens = [g for g in generators if g]
    if any(g.degree == 0 for g in gens):
        return [(0, 1, [])]
    budget = [MAX_BUCHBERGER_POPS]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    # ascending degrevlex by lead, the smallest int of its degree
    for g in sorted(gens, key=lambda g: (g.degree, -min(g._cleared[1]))):
        r, _ = _divide(dict(g._cleared[1]), basis, budget)
        if r:
            basis.append(_basis_element(r))

    lead = []
    leads_of_degree = {}  # degree -> the leads of that degree, for the Hilbert walk
    waiting = {}  # lcm degree -> [(-lcm, k, new)], sorted to pop lcm ascending in degrevlex

    def add_lead(m):
        new = len(lead)
        lead.append(m)
        leads_of_degree.setdefault(mono_degree(m), set()).add(m)
        for k in range(new):
            top = _lcm(lead[k], m)
            waiting.setdefault(mono_degree(top), []).append((-top, k, new))

    for e in basis:
        add_lead(e[0])
    # the bound takes the kept generators: they generate I, and are no more
    numerator = _ci_numerator(mono_degree(m) for m in lead) if len(gens) <= 4 else None
    standard, std_degree, bound = {0}, 0, None  # standard monomials of std_degree
    walked = 0
    processed = 0
    while waiting:
        degree = min(waiting)
        pairs = waiting.pop(degree)
        pairs.sort(reverse=True)  # popped from the end, so a processed pair is freed at once
        while pairs:
            _, i, j = pairs.pop()
            processed += 1
            if processed > pair_cap:
                raise ResourceLimitError(
                    f"buchberger, degree {degree}: pair cap {pair_cap} exceeded")
            if numerator is not None:
                while std_degree < degree and walked <= MAX_STANDARD_WALK:
                    if give_up and bound is not None and len(standard) > bound:
                        return None
                    walked += len(standard)
                    std_degree += 1
                    standard = _next_standard(standard, leads_of_degree.get(std_degree, ()))
                    bound = _ci_hilbert_function(numerator, std_degree)
                if std_degree == degree and len(standard) == bound:
                    # the leads span in(I)_degree: the rest of the degree reduces to zero
                    processed += len(pairs)
                    if processed > pair_cap:
                        raise ResourceLimitError(
                            f"buchberger, degree {degree}: pair cap {pair_cap} exceeded")
                    break
            if not _nonzero_fields(lead[i]) & _nonzero_fields(lead[j]):
                continue  # coprime leads
            top = _lcm(lead[i], lead[j])
            chained = False
            for k, other in enumerate(lead):
                q = top - other
                if q < 0 or q & _GUARD or k == i or k == j:  # not _divides(other, top), inline
                    continue
                # of (i, k) and (j, k), only one with lcm top that comes after
                # (i, j) still waits
                if not (k > j and _lcm(lead[i], other) == top
                        or k > i and _lcm(lead[j], other) == top):
                    chained = True
                    break
            if chained:
                continue
            if degree > MAX_DEGREE:
                raise ResourceLimitError(
                    f"buchberger: S-polynomial of degree {degree} exceeds degree cap {MAX_DEGREE}")
            r, _ = _divide(_s_polynomial_terms(basis[i], basis[j]), basis, budget)
            if not r:
                continue
            basis.append(_basis_element(r))
            add_lead(basis[-1][0])
            standard.discard(lead[-1])  # a lead of the pair degree is not standard
    return basis


def buchberger(generators, pair_cap: int = DEFAULT_PAIR_CAP):
    """Reduced degrevlex Groebner basis, monic and sorted by ascending lead:
    _reduced_basis of _groebner_elements, whose arguments and errors it
    takes."""
    return _reduced_basis(_groebner_elements(generators, pair_cap))


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals


def _minimalize(gens):
    """The minimal generators of the monomial ideal that the packed
    monomials gens generate, ascending.  A proper divisor is smaller than its
    multiple, so in ascending order each monomial meets its divisors first."""
    out = []
    for g in sorted(set(gens)):
        for h in out:
            if not (g - h) & _GUARD:  # _divides(h, g), inline; h < g
                break
        else:
            out.append(g)
    return tuple(out)


def _pivot(gens, mixed):
    """(v, k, J : v^k) for the minimal generators gens of J, mixed those
    with more than one variable: v is the variable in most mixed generators,
    the first on ties, and k its least positive exponent in gens."""
    counts = [sum(1 for g in mixed if g >> 32 * v & _FIELD) for v in range(NVARS)]
    v = max(range(NVARS), key=counts.__getitem__)
    k = min(e for e in (g >> 32 * v & _FIELD for g in gens) if e)
    power = k << 32 * v
    colon = tuple(g - power if g >> 32 * v & _FIELD else g for g in gens)
    return v, k, colon


def _plus(gens, v, k):
    """The minimal generators of J + v^k, ascending, for J's minimal
    generators gens (no 1 among them) and k at most the least positive
    exponent of v: no generator without v divides v^k or is divided by it."""
    return tuple(sorted([g for g in gens if not g >> 32 * v & _FIELD] + [k << 32 * v]))


@lru_cache(maxsize=None)
def _minimal_numerator(gens: tuple) -> tuple:
    """Coefficients of HS(S/J) * (1-t)^4, as a tuple of (exponent,
    coefficient) pairs, for the minimal generators gens of the monomial
    ideal J, ascending as _minimalize leaves them.

    With a mixed generator, 0 -> S/(J : v^k)(-k) -> S/J -> S/(J + v^k) -> 0
    splits it (see _pivot).  J + v^k is smaller than J: v lies in a mixed
    minimal generator, so any pure power of v among them is above v^k.
    Only J : v^k needs _minimalize.
    """
    if not gens:
        return ((0, 1),)
    if 0 in gens:
        return ()
    mixed = [g for g in gens if _nonzero_fields(g).bit_count() > 1]
    if not mixed:
        return tuple(sorted(_ci_numerator(mono_degree(g) for g in gens).items()))
    v, k, colon = _pivot(gens, mixed)
    res = {}
    for a, c in _minimal_numerator(_plus(gens, v, k)):
        res[a] = res.get(a, 0) + c
    for a, c in _minimal_numerator(_minimalize(colon)):
        res[a + k] = res.get(a + k, 0) + c
    return tuple(sorted((a, c) for a, c in res.items() if c))


@lru_cache(maxsize=None)
def _minimal_regularity_bound(gens: tuple) -> int:
    """Upper bound B(J) for reg(S/J), exact on complete intersections, for
    the minimal generators gens of the monomial ideal J, ascending as
    _minimalize leaves them.

    It is max(B(J : v) + 1, B(J + v)) with v from _pivot.  For j < k,
    J : v^j has generators of the supports of J's, so it picks v again, and
    (J : v^j) + (v) = J + (v); k such steps are taken here in one,
    max(B(J : v^k) + k, B(J + v) + k - 1).
    """
    if not gens or 0 in gens:
        return 0
    mixed = [g for g in gens if _nonzero_fields(g).bit_count() > 1]
    if not mixed:
        return sum(mono_degree(g) - 1 for g in gens)
    v, k, colon = _pivot(gens, mixed)
    return max(_minimal_regularity_bound(_minimalize(colon)) + k,
               _minimal_regularity_bound(_plus(gens, v, 1)) + k - 1)


# ---------------------------------------------------------------------------
# complete intersections certified on a hyperplane section

_SECTION = HomogeneousPolynomial(1, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 3})
_Z3 = HomogeneousPolynomial.variable(3)


@lru_cache(maxsize=None)
def _section_power(e: int) -> HomogeneousPolynomial:
    """l^e, for e <= MAX_SECTION_DEGREE."""
    return _SECTION ** e


def _section_cut(f: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """f(z0, z1, z2, l) for l = z0 + 2*z1 + 3*z2: a form in z0..z2 of the
    same degree."""
    den, ints = f._cleared
    slices = {}
    for m, c in ints.items():
        e = m >> 96  # the exponent of z3
        slices.setdefault(e, {})[m - (e << 96)] = c
    return sum_of_products((1, _from_integers(f.degree - e, den, terms), _section_power(e))
                           for e, terms in slices.items())


def _section_numerator(generators):
    """_ci_numerator of the degrees of the generators, nonzero forms, sorted
    by exponent as hilbert_numerator is, when their cuts and z3 certify
    that they are a regular sequence (see the module docstring); None when
    they do not, or when there are more than three, or one is constant or
    of degree above MAX_SECTION_DEGREE, or every monomial of every form has
    a positive exponent at some index in a set A of fewer indices than there
    are forms.  Then the forms vanish on z_A = 0, so their ideal has height
    at most |A| and they are no regular sequence; nothing is cut."""
    degrees = [g.degree for g in generators]
    if not 0 < len(degrees) <= 3 or min(degrees) < 1 or max(degrees) > MAX_SECTION_DEGREE:
        return None
    supports = {sum(1 << v for v in range(NVARS) if m >> 32 * v & _FIELD)
                for g in generators for m in g._cleared[1]}
    for a in range(1, 1 << NVARS):  # A as a bit mask
        if a.bit_count() < len(degrees) and all(s & a for s in supports):
            return None
    elements = _groebner_elements([_section_cut(g) for g in generators] + [_Z3], give_up=True)
    if elements is None:
        return None
    lead = _minimalize(e[0] for e in elements)
    if dict(_minimal_numerator(lead)) != _ci_numerator(degrees + [1]):  # z3 has degree 1
        return None
    return dict(sorted(_ci_numerator(degrees).items()))


# ---------------------------------------------------------------------------
# Hilbert polynomials


# 6 * C(t+i, i) in powers of t, lowest first, i = 0..3
_SIX_BINOMIAL = ((6,), (6, 6), (6, 9, 3), (6, 11, 6, 1))


class HilbertPolynomial:
    """Polynomial in t of degree at most 3, stored in the binomial basis
    C(t+i, i), whose coefficients are integers for every Hilbert polynomial;
    six times its power coefficients are kept, as ints."""

    __slots__ = ("coeffs", "_six_power")

    def __init__(self, binomial_coeffs):
        coeffs = list(binomial_coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > len(_SIX_BINOMIAL):
            raise ValueError(f"a Hilbert polynomial on P^3 has degree at most 3, "
                             f"got {len(coeffs)} binomial coefficients")
        self.coeffs = tuple(coeffs)
        six = [0] * max(len(coeffs), 1)
        for b, row in zip(coeffs, _SIX_BINOMIAL):
            for k, c in enumerate(row):
                six[k] += b * c
        self._six_power = tuple(six)

    def power_coeffs(self):
        return [Fraction(c, 6) for c in self._six_power]

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading_coefficient(self) -> Fraction:
        return Fraction(self._six_power[-1], 6)

    def __call__(self, t: int) -> Fraction:
        return Fraction(sum(c * t ** k for k, c in enumerate(self._six_power)), 6)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomial):
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
        return _signed_sum(parts)

    def __repr__(self):
        return f"HilbertPolynomial({self})"


# ---------------------------------------------------------------------------
# graded ideals


class GradedIdeal:
    """Homogeneous ideal with cached Groebner basis and Hilbert data.

    The first query runs Buchberger and keeps its integer basis elements,
    except a Hilbert query that the hyperplane section certifies (see the
    module docstring), which computes a basis of the cut forms only.
    lead_ideal, is_unit_ideal, the other Hilbert queries, regularity_bound
    and the resolution read only the elements; groebner_basis, contains and
    equals also build the monic reduced basis from them, once.  The minimal
    free resolution is kept too, once one is computed.
    """

    def __init__(self, generators):
        gens = []
        for g in generators:
            if not isinstance(g, HomogeneousPolynomial):
                raise TypeError("generators must be homogeneous polynomials")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self._elements = None
        self._gb = None
        self._lead = None
        self._numerator = None
        self._hilbert = None
        self._resolution = None

    @classmethod
    def from_expressions(cls, expressions) -> "GradedIdeal":
        from .polyring import parse_polynomial

        return cls([parse_polynomial(e) for e in expressions])

    @classmethod
    def from_file(cls, path) -> "GradedIdeal":
        lines = []
        with open(path, "r", encoding="utf-8-sig") as handle:
            for raw in handle:
                line = raw.split("#", 1)[0].strip()
                if line:
                    lines.append(line)
        return cls.from_expressions(lines)

    def _basis_elements(self):
        """The integer basis elements of _groebner_elements, computed on the
        first call."""
        if self._elements is None:
            self._elements = _groebner_elements(self.generators)
        return self._elements

    def groebner_basis(self):
        if self._gb is None:
            self._gb = tuple(_reduced_basis(self._basis_elements()))
        return self._gb

    def _packed_lead(self) -> tuple:
        """Minimal generators of the lead-term ideal, packed, ascending."""
        if self._lead is None:
            self._lead = _minimalize(e[0] for e in self._basis_elements())
        return self._lead

    def lead_ideal(self) -> tuple:
        """Minimal monomial generators of the lead-term ideal, sorted
        exponent tuples."""
        return tuple(sorted(exponent_tuples(self._packed_lead())))

    def is_unit_ideal(self) -> bool:
        return 0 in self._packed_lead()

    def contains(self, f: HomogeneousPolynomial) -> bool:
        if not f:
            return True
        return normal_form(f, list(self.groebner_basis())).is_zero()

    def equals(self, other: "GradedIdeal") -> bool:
        return self.groebner_basis() == other.groebner_basis()

    def hilbert_numerator(self) -> dict:
        """Coefficients of HS(S/I) * (1-t)^4, keyed by ascending exponent;
        empty for the unit ideal.  Before any basis exists, a complete
        intersection of up to three forms is tried on the section."""
        if self._numerator is None:
            if self._elements is None:
                self._numerator = _section_numerator(self.generators)
            if self._numerator is None:
                self._numerator = dict(_minimal_numerator(self._packed_lead()))
        return self._numerator

    def hilbert_function(self, k: int) -> int:
        """dim (S/I)_k, exact in every degree."""
        return _ci_hilbert_function(self.hilbert_numerator(), k)

    def hilbert_polynomial(self) -> HilbertPolynomial:
        """The Hilbert polynomial of S/I, computed on the first call and
        kept.

        Write the numerator sum_a c_a t^a in powers of 1 - t, by
        t^a = sum_j C(a, j) (-1)^j (1-t)^j.  Over (1-t)^4 the terms j >= 4
        leave a polynomial, which moves finitely many degrees only, and
        the coefficient of t^k in 1/(1-t)^(i+1) is C(k+i, i).  So for
        large k, dim (S/I)_k = sum_i b_i C(k+i, i) with the integers
        b_i = (-1)^(3-i) sum_a c_a C(a, 3-i), i = 0..3.
        """
        if self._hilbert is None:
            num = self.hilbert_numerator()
            if not num:  # only the unit ideal has HS(S/I) = 0
                raise ValueError("the unit ideal has no Hilbert polynomial")
            self._hilbert = HilbertPolynomial(
                (-1) ** (3 - i) * sum(c * comb(a, 3 - i) for a, c in num.items())
                for i in range(4))
        return self._hilbert

    def regularity_bound(self) -> int:
        """Certified upper bound for reg(S/I) via the lead-term ideal."""
        return _minimal_regularity_bound(self._packed_lead())

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GradedIdeal({gens})"


def hilbert_polynomial(ideal: GradedIdeal) -> HilbertPolynomial:
    return ideal.hilbert_polynomial()


def curve_invariants(ideal: GradedIdeal):
    """(degree, arithmetic genus) of the curve cut out by the ideal."""
    P = ideal.hilbert_polynomial()
    if P.degree() != 1:
        raise NotACurveError(
            f"Hilbert polynomial {P} has degree {P.degree()}, expected 1"
        )
    b0, b1 = P.coeffs  # P(t) = b0 + b1 (t + 1)
    return b1, 1 - b0 - b1


# ---------------------------------------------------------------------------
# names that moved to resolution

# Every public name of resolution, and kernel_of_columns, which it imports
# from linalg, as they were when this module defined them.
_RESOLUTION_NAMES = frozenset((
    "FreeResolution", "MAX_DUAL_PIECE", "MAX_SYZYGY_COLUMNS", "MAX_SYZYGY_ROWS",
    "RaoProfile", "default_rao_window", "graded_syzygies", "kernel_of_columns",
    "minimal_free_resolution", "rao_module_dimensions"))


def __getattr__(name):
    """A name of _RESOLUTION_NAMES, read from resolution, which is imported
    on the first such read (PEP 562).  Nothing is written here, so a name
    rebound in resolution reads the same here."""
    if name not in _RESOLUTION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import resolution

    return getattr(resolution, name)
