"""Groebner bases, Hilbert data, graded syzygies, free resolutions and the
first-cohomology dimensions of curve ideal sheaves.

Everything is exact.  The monomial order is fixed to degrevlex.  Hilbert
series of lead-term ideals drive degree and genus; the per-twist first
cohomology of a curve's ideal sheaf comes from graded duality applied to
the dualized tail of the resolution, so no saturation is ever computed.

Every monomial in this module is a packed exponent vector (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): z0^e0 z1^e1 z2^e2 z3^e3 is the int
e3 << 96 | e2 << 64 | e1 << 32 | e0.  Bit 31 of each 32-bit field is a guard
bit, clear while every exponent is at most MAX_DEGREE = 2^31 - 1, which the
parser, normal_form and Buchberger's generators and S-pairs enforce.
Products and quotients are + and -, divisibility, lcm and coprimality read
the guard bits, and integer order is the order a min-heap needs to hand out
terms in descending degrevlex order.  Polyring's exponent tuples appear only
where a HomogeneousPolynomial is built or read, and in lead_ideal().

Division and Buchberger run fraction-free over Z.  Basis elements are kept
primitive and S-polynomials are formed with integer cofactors; division is
integer pseudo-division.  No Fraction is made: normal_form returns its
integer remainder over the accumulated multiplier, and buchberger returns
the monic reduced basis, made in one pass from the minimal basis by
_reduced_basis, each element its integer terms over its lead coefficient
(polyring's cleared form).

Most callers never need that reduced basis.  GradedIdeal keeps the
unreduced integer elements Buchberger ends with; the lead ideal, every
Hilbert quantity, the regularity bound and the resolution (whose first
layer divides by the elements, the normal form being unique) read only
those.  Only groebner_basis, contains and equals build the reduced basis.

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
    _koszul_degrees), so they are a regular sequence;
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

Resolutions are built layer by layer and degree by degree.  Exactness and
the Hilbert function of S/I give the dimension of the kernel each layer
must cover in each degree; candidates (normal forms in layer 1, kernels of
the previous differential above it) are computed only where the multiples
of the generators found so far fall short of it.  Each degree piece of
each differential is eliminated once (as in La Scala and Stillman,
"Strategies for computing minimal free resolutions", J. Symbolic Comput.
26, 1998).  The image check of layer L in degree e takes the kernel of the
multiples so far, whose rank is their count less the kernel's length.  The
generators it then finds are independent of them and come last, so that
kernel is also the kernel of d_L in degree e, and layer L + 1 takes it as
its candidates; it eliminates d_L itself only in degrees layer L never
reached.  New generators are picked by an echelon form seeded with the
independent multiples, and candidates stop once the rank reaches the
kernel dimension.  Degree matrices are integer, cleared once under one
denominator per matrix, which keeps their kernels.  Each layer stops at a
last degree proven from the input, and one degree past it is a safety
margin.  Generator twists in layer L never exceed reg(S/I) + L, which is
bounded through the lead-term quotient.  Layer 1 also stops at the largest
given generator degree: the given generators span I, and each is in the
image once its degree is checked.  When hilbert_numerator() is
prod(1 - t^d_i) over the r given generators, dim S/I = 4 - r, so they are a
regular sequence; their Koszul complex is the minimal resolution, and layer
L stops at the sum of the L largest d_i.  Each target is met by both the
kernel length and the rank, a dimension audit over all degrees up to
regularity_bound() + 6 cross-checks the result, and a complete intersection's
twists are checked against its Koszul complex's.

Rao profiles read h^1(I_C(k)) as the third Ext module of S/I, taken on the
dualized resolution (Rao, Invent. Math. 50, 1979): at twist k it is
dim3 - rank4 - rank3, where dim3 is the piece of F_3^* there and rank3,
rank4 are the ranks of the transposed d_3 into it and d_4 out of it.  Each
rank eliminates over the same degree matrices, taken on the transposed
differential, until it reaches the dimension of the codomain piece.  The
twists are walked downward, from the last one where the piece of F_3^* is
nonzero, and the walk stops at the first twist where every summand of F_3^*
is generated in its piece and rank3 = dim3.  That stop is proven:
  - one twist lower the piece is S_1 times this one, since its summands are
    generated here;
  - the transposed d_3 is a module map onto this piece, so it is onto S_1
    times it;
  - so rank3 = dim3, and h = 0, at every lower twist.
It fires only when F_4 = 0, as for a saturated ideal (Auslander-Buchsbaum):
otherwise the image of the transposed d_3 lies in the kernel of the
transposed d_4, which is nonzero on the generators of F_3^*, and the walk
covers the whole window.  It always fires on the saturated ideal of a
locally Cohen-Macaulay curve, whose h^1 vanishes at low twists.
A twist whose pieces exceed MAX_DUAL_PIECE is refused before eliminating;
twists below the stop are neither eliminated nor checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, inf, lcm

from .errors import (
    CrossCheckFailureError,
    DegreeMismatchError,
    NotACurveError,
    ResourceLimitError,
    WindowTooSmallError,
)
from .linalg import Echelon, kernel_of_columns
from .polyring import (
    HomogeneousPolynomial,
    MAX_DEGREE,
    NVARS,
    _from_integers,
    _signed_sum,
    degrevlex_key,
    graded_piece_dimension,
    sum_of_products,
)

DEFAULT_PAIR_CAP = 100_000
# Largest graded piece of a dualized resolution module that a Rao profile
# may eliminate over; pieces grow like C(-k, 3) as the twist k falls.  The
# largest any shipped demo, benchmark input or test curve reaches is 60
# (legendrian degree 7, twist 5), but for two probes whose walk never stops
# early: a line with an embedded point (1680 at twist -14, refused at -15)
# and a truncated ideal, F_4 != 0 (560).
MAX_DUAL_PIECE = 2000
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
# Most columns, the dimension of the degree piece of (+) S(-w_i), that
# graded_syzygies may eliminate over.  The largest any shipped test, demo or
# verify --suite all reaches is 50; on a 2-vCPU x86_64 machine under Python
# 3.11, three dense quadrics took 5.2 s at 1092 columns and 29 s at 2040.
MAX_SYZYGY_COLUMNS = 1000
# Most rows, the dimension of the target degree piece S_d, that
# graded_syzygies may index.  The column cap does not bound them: z0^100 in
# degree 100 has 1 column and 176851 rows, 0.3 s and 60 MB on the machine
# above, where z0^37 in degree 37 (9880 rows) takes 0.02 s.  The largest
# any shipped test, demo or verify --suite all reaches is 560 (x, y in
# degree 13).
MAX_SYZYGY_ROWS = 10_000


# ---------------------------------------------------------------------------
# packed exponent vectors
#
# A monomial z0^e0 z1^e1 z2^e2 z3^e3 is one int, e3 << 96 | e2 << 64 |
# e1 << 32 | e0: four 32-bit fields, bit 31 of each the guard bit, clear
# while every exponent is at most MAX_DEGREE.  Integer order is the
# lexicographic order of (e3, e2, e1, e0), and among monomials of one degree
# the smallest is the largest in degrevlex, so a min-heap of them hands out
# terms in descending order.  A divisor is never larger than its multiple.
# Products and quotients are + and -; d divides m when m - d is nonnegative
# with no guard bit set (the lowest field that borrows sets its own); lcm
# and coprimality treat all four fields at once through the guard bits.  The
# exponent of z_v in m is m >> 32*v & _FIELD, and 0 packs the monomial 1.
# Polynomials enter this module through _packed_terms and are built again
# through _unpack (normal_form, _reduced_basis and _element): the one
# boundary with polyring's tuples.

_FIELD = (1 << 32) - 1
_GUARD = sum(1 << 32 * i + 31 for i in range(NVARS))
_LOW = _GUARD - sum(1 << 32 * i for i in range(NVARS))  # 2^31 - 1 in each field
_STEPS = tuple(1 << 32 * i for i in range(NVARS))  # z0, z1, z2, z3


def _pack(m) -> int:
    return m[3] << 96 | m[2] << 64 | m[1] << 32 | m[0]


def _unpack(p: int):
    return p & _FIELD, p >> 32 & _FIELD, p >> 64 & _FIELD, p >> 96


def _degree(p: int) -> int:
    return (p & _FIELD) + (p >> 32 & _FIELD) + (p >> 64 & _FIELD) + (p >> 96)


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


@lru_cache(maxsize=None)
def _monomials(k: int) -> tuple:
    """The packed monomials of degree k, ascending: the order of
    polyring.monomials_of_degree(k), descending degrevlex."""
    return tuple(e3 << 96 | e2 << 64 | e1 << 32 | k - e3 - e2 - e1
                 for e3 in range(k + 1) for e2 in range(k + 1 - e3)
                 for e1 in range(k + 1 - e3 - e2))


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
                f"buchberger, degree {_degree(m)}: divisions exceed the work cap of "
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


def _packed_terms(f: HomogeneousPolynomial, stage: str):
    """(den, integer terms keyed by packed monomials) of f; a degree past
    MAX_DEGREE raises ResourceLimitError naming the stage."""
    if f.degree > MAX_DEGREE:
        raise ResourceLimitError(
            f"{stage}: degree {f.degree} exceeds the degree cap {MAX_DEGREE}")
    den, ints = f._cleared
    return den, {_pack(m): c for m, c in ints.items()}


def normal_form(f: HomogeneousPolynomial, basis) -> HomogeneousPolynomial:
    """Remainder of f under division by a list of nonzero polynomials."""
    table = [_basis_element(_packed_terms(g, "normal_form")[1]) for g in basis if g]
    den, work = _packed_terms(f, "normal_form")
    remainder, mult = _divide(work, table)
    return _from_integers(f.degree, mult * den, {_unpack(m): c for m, c in remainder.items()})


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
                     key=lambda e: (_degree(e[0]), -e[0]))  # ascending degrevlex
    out = []
    for e in minimal:
        lead, a, tail = e
        r, _ = _divide({lead: a, **dict(tail)}, [o for o in minimal if o is not e])
        out.append(_from_integers(_degree(lead), r[lead],
                                  {_unpack(m): c for m, c in r.items()}))
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

    Raises ResourceLimitError when a generator exceeds MAX_DEGREE, more than
    pair_cap pairs are processed (skipped and pruned pairs count), an
    S-polynomial that no criterion pruned exceeds MAX_DEGREE, past which its
    exponents would not fit their packed fields, or the divisions of the
    call make more than MAX_BUCHBERGER_POPS heap pops.
    """
    gens = [g for g in generators if g]
    if any(g.degree == 0 for g in gens):
        return [(0, 1, [])]
    budget = [MAX_BUCHBERGER_POPS]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    for g in sorted(gens, key=lambda g: degrevlex_key(g.lead_monomial())):
        r, _ = _divide(_packed_terms(g, "buchberger")[1], basis, budget)
        if r:
            basis.append(_basis_element(r))

    lead = []
    leads_of_degree = {}  # degree -> the leads of that degree, for the Hilbert walk
    waiting = {}  # lcm degree -> [(-lcm, k, new)], sorted to pop lcm ascending in degrevlex

    def add_lead(m):
        new = len(lead)
        lead.append(m)
        leads_of_degree.setdefault(_degree(m), set()).add(m)
        for k in range(new):
            top = _lcm(lead[k], m)
            waiting.setdefault(_degree(top), []).append((-top, k, new))

    for e in basis:
        add_lead(e[0])
    # the bound takes the kept generators: they generate I, and are no more
    numerator = _ci_numerator(_degree(m) for m in lead) if len(gens) <= 4 else None
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
        return tuple(sorted(_ci_numerator(_degree(g) for g in gens).items()))
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
        return sum(_degree(g) - 1 for g in gens)
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
        slices.setdefault(m[3], {})[(m[0], m[1], m[2], 0)] = c
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
    supports = {sum(1 << v for v, e in enumerate(m) if e)
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


@lru_cache(maxsize=None)
def _binomial_poly(i: int) -> tuple:
    """Power-basis coefficients of C(t+i, i)."""
    coeffs = [Fraction(1)]
    for j in range(1, i + 1):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * j
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(c / factorial(i) for c in coeffs)


class HilbertPolynomial:
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
                for k, c in enumerate(_binomial_poly(i)):
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
            total += b * _binom_ext(t + i, i)
        return total

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


def _binom_ext(n: int, k: int) -> Fraction:
    """Polynomial extension of C(n, k) to negative n."""
    num = 1
    for j in range(k):
        num *= n - j
    return Fraction(num, factorial(k))


# ---------------------------------------------------------------------------
# graded ideals


class GradedIdeal:
    """Homogeneous ideal with cached Groebner basis and Hilbert data.

    The first query runs Buchberger and keeps its integer basis elements,
    except a Hilbert query that the hyperplane section certifies (see the
    module docstring), which computes a basis of the cut forms only.
    lead_ideal, is_unit_ideal, the other Hilbert queries, regularity_bound
    and the resolution read only the elements; groebner_basis, contains and
    equals also build the monic reduced basis from them, once.
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

    @classmethod
    def from_expressions(cls, expressions) -> "GradedIdeal":
        from .polyring import parse_polynomial

        return cls([parse_polynomial(e) for e in expressions])

    @classmethod
    def from_file(cls, path) -> "GradedIdeal":
        lines = []
        with open(path, "r", encoding="utf-8") as handle:
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
        return tuple(sorted(_unpack(m) for m in self._packed_lead()))

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
# graded syzygies


def graded_syzygies(row, weights, target_degree: int):
    """Basis of tuples (g_i) with deg g_i = target_degree - weights[i] and
    sum g_i * row[i] = 0, by per-degree exact kernel computation.  Refuses,
    before building it, a degree piece of more than MAX_SYZYGY_COLUMNS
    columns or MAX_SYZYGY_ROWS rows with ResourceLimitError."""
    row = list(row)
    weights = list(weights)
    if len(row) != len(weights):
        raise DegreeMismatchError("row and weights have different lengths")
    for p, w in zip(row, weights):
        if p and p.degree != w:
            raise DegreeMismatchError(
                f"row entry of degree {p.degree} in a slot of weight {w}"
            )
    twists = [-w for w in weights]
    size = sum(graded_piece_dimension(target_degree + b) for b in twists)
    if size > MAX_SYZYGY_COLUMNS:
        raise ResourceLimitError(
            f"graded_syzygies, degree {target_degree}: {size} columns exceed "
            f"the cap {MAX_SYZYGY_COLUMNS}"
        )
    rows = graded_piece_dimension(target_degree)
    if rows > MAX_SYZYGY_ROWS:
        raise ResourceLimitError(
            f"graded_syzygies, degree {target_degree}: {rows} rows exceed "
            f"the cap {MAX_SYZYGY_ROWS}"
        )
    basis = _degree_basis(twists, target_degree)
    _, columns = _degree_matrix([{0: p} for p in row], twists, [0], target_degree)
    out = []
    for den, combo in kernel_of_columns(columns):
        element = _element(combo, basis, twists, target_degree, den)
        out.append(
            tuple(
                element.get(slot, HomogeneousPolynomial.zero(target_degree - w))
                for slot, w in enumerate(weights)
            )
        )
    return out


def _degree_basis(twists, degree):
    """Index map for the degree-e piece of (+) S(b): list of (slot, packed
    monomial), each slot's monomials in the order of monomials_of_degree."""
    return [(slot, m) for slot, b in enumerate(twists) for m in _monomials(degree + b)]


def _degree_matrix(columns, twists, target_twists, degree):
    """(den, matrix): den times the degree-e piece of the map (+) S(b_j) ->
    (+) S(c_i) sending the j-th generator to columns[j], a map from target
    slot to polynomial.  The matrix has one sparse integer column per entry
    of _degree_basis(twists, degree), over the rows
    _degree_basis(target_twists, degree); den is the lcm of the
    denominators of the polynomials it multiplies.  One denominator for the
    whole matrix keeps its kernel and its rank, and each polynomial is
    cleared and packed once (_packed_terms), not once per monomial
    multiple."""
    row_index = {key: i for i, key in enumerate(_degree_basis(target_twists, degree))}
    cleared = {slot: [(target, _packed_terms(poly, "degree matrix"))
                      for target, poly in columns[slot].items()]
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


def _element(vec, basis, twists, degree, den):
    """The element of (+) S(b) with coordinates vec / den over the
    degree-e basis, as a map from slot to homogeneous polynomial; the
    entries of vec are nonzero ints, den a positive int."""
    slots = {}
    for ci, c in vec.items():
        slot, m = basis[ci]
        slots.setdefault(slot, {})[_unpack(m)] = c
    return {slot: _from_integers(degree + twists[slot], den, terms)
            for slot, terms in slots.items()}


# ---------------------------------------------------------------------------
# minimal free resolutions


@dataclass
class FreeResolution:
    """Minimal graded free resolution of S/I; each layer stops at a proven
    last degree, and bound only limits the final dimension audit.

    twists[i] lists the signed twists b with F_i = (+) S(b); twists[0] = [0].
    differentials[i] holds the columns of d_{i+1} : F_{i+1} -> F_i, each a
    map from F_i slot index to a homogeneous polynomial.
    """

    twists: list
    differentials: list
    bound: int

    def length(self) -> int:
        return len(self.twists) - 1

    def layer_dimension(self, i: int, degree: int) -> int:
        if i >= len(self.twists):
            return 0
        return sum(graded_piece_dimension(degree + b) for b in self.twists[i])

    def betti(self):
        return [[i, sorted(tw)] for i, tw in enumerate(self.twists)]

    def alternating_sum_ok(self, hilbert_function) -> bool:
        return self._alternating_sum_mismatch(hilbert_function) is None

    def _alternating_sum_mismatch(self, hilbert_function):
        """(e, alternating sum, H(e)) at the first degree e <= bound where
        the alternating sum of the layer dimensions misses H(e), or None."""
        for e in range(0, self.bound + 1):
            total = 0
            for i in range(len(self.twists)):
                total += (-1) ** i * self.layer_dimension(i, e)
            expected = hilbert_function(e)
            if total != expected:
                return e, total, expected
        return None

    def composition_ok(self) -> bool:
        for i in range(1, len(self.differentials)):
            lower = self.differentials[i - 1]
            for column in self.differentials[i]:
                groups = {}
                for slot, poly in column.items():
                    for target, entry in lower[slot].items():
                        groups.setdefault(target, []).append((1, poly, entry))
                if any(sum_of_products(pairs) for pairs in groups.values()):
                    return False
        return True

    def is_minimal(self) -> bool:
        for cols in self.differentials:
            for column in cols:
                for poly in column.values():
                    if poly and poly.degree == 0:
                        return False
        return True


def _koszul_degrees(ideal: GradedIdeal):
    """The degrees of the given generators, largest first, when these are a
    regular sequence; otherwise None.

    They are exactly when hilbert_numerator() is prod(1 - t^d) over them.
    If it is, HS(S/I) has a pole of order 4 - r at t = 1 for r generators,
    so dim S/I = 4 - r and the r forms generate an ideal of height r; in a
    polynomial ring such forms are a regular sequence.  Conversely the
    Koszul complex of a regular sequence is exact, which gives that
    numerator.  Five or more forms in four variables never are one.
    """
    degrees = sorted((g.degree for g in ideal.generators), reverse=True)
    if len(degrees) > 4 or ideal.hilbert_numerator() != _ci_numerator(degrees):
        return None
    return degrees


def minimal_free_resolution(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I.

    Layer L of the loop looks for generators up to a last degree, and runs
    its image check one degree further as a safety margin, where a missing
    generator raises ResourceLimitError.  The last degree is the smallest
    of these that apply, each proven from the input:
      - regb + L, regb = regularity_bound(): generator twists of F_L never
        exceed reg(S/I) + L;
      - in layer 1, the largest degree of a given generator: the image
        check in each degree puts every given generator of that degree in
        the image, and the given generators span I, so past the largest
        the image is all of I_e;
      - for a complete intersection (_koszul_degrees), the sum of the L
        largest degrees: the Koszul complex of a regular sequence is its
        minimal resolution, so the twists of F_L are the sums of L degrees.
        That sum never exceeds regb + L, as reg(S/I) = sum(d_i - 1) <=
        regb, so every Koszul twist is at most bound.
    For a complete intersection the computed twists are then checked
    against the Koszul complex's; a mismatch raises CrossCheckFailureError
    naming its layer.  An alternating sum that misses H(e) in some degree
    e <= bound = regularity_bound() + 6 raises ResourceLimitError naming
    the first such e.
    """
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

    koszul = _koszul_degrees(ideal)
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
            _, images = _degree_matrix(columns, twists, source, e)
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
                    if any(_divides(g, m) for g in lead_gens):
                        r, mult = _divide({m: 1}, elements)
                        z = {index[m]: mult}  # mult times m - NF(m)
                        for rm, c in r.items():
                            z[index[rm]] = -c
                        candidates.append((mult, z))
            elif e in below:
                candidates = below[e]
            else:  # a degree the layer below never reached
                candidates = kernel_of_columns(_degree_matrix(
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
                    columns.append(_element(z, basis, source, e, den))
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


# ---------------------------------------------------------------------------
# first cohomology of the ideal sheaf (Rao dimensions)


@dataclass
class RaoProfile:
    """Per-twist first cohomology of a curve's ideal sheaf."""

    profile: dict
    total: int
    window: tuple

    def to_json(self):
        return {"profile": {str(k): v for k, v in sorted(self.profile.items())},
                "total": self.total}


def default_rao_window(ideal: GradedIdeal):
    maxdeg = ideal.max_generator_degree()
    return (-maxdeg, 3 + sum(g.degree for g in ideal.generators))


def rao_module_dimensions(ideal: GradedIdeal, window=None) -> RaoProfile:
    """h^1 of the ideal sheaf of the curve, twist by twist, over the window.

    Computed as the dimension of the third Ext module of S/I against the
    twisted canonical module, read off the dualized resolution.  The twists
    are walked downward from min(hi, max(-b - 4)) over the twists b of F_3,
    above which the piece of F_3^* is zero; the walk stops at the first twist
    k <= min(-b - 4) where the transposed d_3 is onto that piece, which
    proves h = 0 at every lower twist (see the module docstring).  The value
    at both window endpoints must vanish.
    """
    ideal._basis_elements()  # the resolution needs the basis: no section is cut first
    P = ideal.hilbert_polynomial()
    if P.degree() != 1:
        raise NotACurveError("the ideal does not cut out a curve")
    if window is None:
        window = default_rao_window(ideal)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")

    res = minimal_free_resolution(ideal)
    profile = {}
    if res.length() >= 3:
        t2, t3 = res.twists[2], res.twists[3]
        t4 = res.twists[4] if res.length() >= 4 else []
        d3 = res.differentials[2]
        d4 = res.differentials[3] if res.length() >= 4 else []
        generated = min(-b - 4 for b in t3)  # at or below it F_3^* is generated in its piece
        for k in range(min(hi, max(-b - 4 for b in t3)), lo - 1, -1):
            dim2, dim3, dim4 = (sum(graded_piece_dimension(-b - 4 - k) for b in t)
                                for t in (t2, t3, t4))
            if max(dim2, dim3, dim4) > MAX_DUAL_PIECE:
                raise ResourceLimitError(
                    f"Rao twist {k}: a dual-map piece of dimension "
                    f"{max(dim2, dim3, dim4)} exceeds the cap {MAX_DUAL_PIECE}"
                )
            rank4 = _dual_map_rank(t3, t4, d4, k) if t4 else 0
            rank3 = _dual_map_rank(t2, t3, d3, k)
            h = dim3 - rank4 - rank3
            if h < 0:
                raise ResourceLimitError(f"Rao twist {k}: negative cohomology dimension {h}")
            if h:
                profile[k] = h
            elif k <= generated and rank3 == dim3:
                break  # onto here, so onto at every lower twist: h = 0 there
    if profile.get(lo) or profile.get(hi):
        raise WindowTooSmallError(
            f"nonzero value at a window endpoint of [{lo}, {hi}]"
        )
    profile = dict(sorted(profile.items()))
    return RaoProfile(profile=profile, total=sum(profile.values()), window=(lo, hi))


def _dual_map_rank(twists_dom, twists_cod, columns, k: int) -> int:
    """Rank of the dual of d : F_cod -> F_dom in dual degree -k.

    The dual sends slot j of F_dom to the j-th row of d, so it is the map
    of free modules with slot twists -b - 4 - k taken in degree 0, one
    integer vector per basis element of its domain piece.  Elimination
    stops once the rank reaches the dimension of the codomain piece, a
    ceiling no further vector can raise.
    """
    transposed = [{l: column[j] for l, column in enumerate(columns) if j in column}
                  for j in range(len(twists_dom))]
    ceiling = sum(graded_piece_dimension(-b - 4 - k) for b in twists_cod)
    ech = Echelon()
    for vec in _degree_matrix(transposed, [-b - 4 - k for b in twists_dom],
                              [-b - 4 - k for b in twists_cod], 0)[1]:
        if ech.rank == ceiling:
            break
        ech.insert(vec)
    return ech.rank
