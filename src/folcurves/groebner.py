"""Groebner bases and Hilbert data of homogeneous ideals.

Everything is exact.  The monomial order is fixed to degrevlex.  Hilbert
series of lead-term ideals drive degree and genus; folcurves.hilbert makes
and reads their numerators, and the bounds below.

Monomials are polyring's packed exponent vectors, except in the
Buchberger run of folcurves.section, which packs three variables in
narrower fields and passes that packing with its arithmetic.  No
polynomial and no S-polynomial of a run exceeds its packing's degree cap,
MAX_DEGREE for polyring's, so their guard bits stay clear, which
divisibility, lcm and coprimality read (see polyring).

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
list is dropped in one step.  A finished degree where they outnumber H_CI(d)
shows that the generators are no regular sequence, and the walk stops
there.  With five or more generators the bound would be Froeberg's
conjecture, and no pair is skipped this way.  The argument holds over any
field, and in three variables, S/(z3) for the section, with z3 counted
among the forms.

GradedIdeal alone picks the route of a Hilbert query.  Generators of one
term each are their own basis from construction.  Before any basis
exists, the first query certifies a bound on a hyperplane section over
a prime field (folcurves.section, imported only then), which passes it
to _groebner_elements as a certificate: a wedge ideal's conormal bound,
from the factor degrees forms records, and otherwise, for at most
MAX_SECTION_FORMS forms, the Koszul bound or, for three forms in a
coordinate line ideal, a Buchsbaum-Rim bound.  Otherwise the lead ideal
of the ideal's own basis answers, and the basis is kept, so no ideal runs
Buchberger twice.

Graded syzygies, free resolutions and Rao profiles are resolution's, which
this module does not import; each public name of resolution, and
kernel_of_columns, is still read here, through __getattr__ (see there).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, inf

from .errors import NotACurveError, ResourceLimitError
from .hilbert import (HilbertPolynomial, _ci_hilbert_function, _ci_numerator, _hilbert_values,
                      _minimal_numerator, _minimal_regularity_bound, _minimalize)
from .polyring import (HomogeneousPolynomial, MAX_DEGREE, _GUARD, _STEPS, _divides,
                       _from_integers, _lcm, exponent_tuples, mono_degree)

DEFAULT_PAIR_CAP = 100_000
# Most standard monomials buchberger's Hilbert-driven skip walks through in
# one call; past it no more pairs are skipped in the call, so a pair of huge
# degree (z0*z1 and z1^(10^8)) is not preceded by a walk through every degree
# below it.  The largest any hilbert-pool ideal walks is 1008 on its own
# variables and 69 on the section's three.
MAX_STANDARD_WALK = 20_000
# Most heap pops the divisions of one _groebner_elements call may make, of
# its generators and S-polynomials together.  The largest any shipped input
# makes is 12958, on the section (CI's wedge query of degree 23); CI's
# wedge queries of degree 12, 16 and 20 make 2327, 4879 and 8855 there, its
# legendrian sample of degree 10 on the exact route 11682 over Q, and a
# hilbert-pool ideal at most 2098 on its own variables and 245 on the
# section.  The legendrian sample of degree 15 on the exact route makes
# 45571 over Q.  On a 2-vCPU x86_64 machine under Python 3.11,
# (x+y+z)^40, (x+y+t)^40, (y+z+t)^39*x reaches the cap in about 0.2 s in
# either order; it ran past 20 s before there was one.
MAX_BUCHBERGER_POPS = 50_000
# Most forms certified on the hyperplane section, which refuses more itself
MAX_SECTION_FORMS = 3


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


def _pop_cap_error(m: int) -> ResourceLimitError:
    """The refusal of a division whose pop of the monomial m, packed as
    polyring packs, overdraws Buchberger's budget; section's division
    raises it too."""
    return ResourceLimitError(
        f"buchberger, degree {mono_degree(m)}: divisions exceed the work cap of "
        f"{MAX_BUCHBERGER_POPS} heap pops")


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
            raise _pop_cap_error(m)
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


def _s_polynomial_terms(e, f, top) -> dict:
    """Integer terms of (b/g)·(top/lead e)·e - (a/g)·(top/lead f)·f for basis
    elements e and f with lead coefficients a and b, g = gcd(a, b) and top
    the lcm of their leads; the leads cancel."""
    (le, a, te), (lf, b, tf) = e, f
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


def _next_standard(standard, leads, steps, low, guard):
    """The standard monomials of degree d + 1 from those of degree d, in a
    packing of the variables steps, guard mask guard and low the bits below
    it: a monomial is standard when all its divisors of degree d are and it
    is not itself one of the leads of degree d + 1."""
    hits = {}
    for m in standard:
        for step in steps:
            u = m + step
            hits[u] = hits.get(u, 0) + 1
    # u has one divisor of degree d per nonzero exponent
    return {u for u, n in hits.items()
            if n == ((u + low) & guard).bit_count() and u not in leads}


# The arithmetic and monomial packing of a Buchberger run, (divide,
# element, steps, guard, width, cap): its division and basis-element maker,
# the packed variables, the guard mask, the bits of one field and the
# largest degree whose exponents fit below the guard bits.  The exact
# route's is over Z on polyring's packing; section passes its own over F_P.
_OVER_Z = (_divide, _basis_element, _STEPS, _GUARD, 32, MAX_DEGREE)


def _groebner_elements(generators, pair_cap: int = DEFAULT_PAIR_CAP, ring=_OVER_Z,
                       bound=None):
    """A degrevlex Groebner basis of the ideal of the integer terms
    generators, dicts packed as ring packs, as ring's basis elements with
    pairwise distinct leads; neither minimal nor reduced.  The unit ideal
    gives [(0, 1, [])] (0 packs the monomial 1), the zero ideal [].

    Pairs (k, new), k < new, are processed in the order (lcm degree, lcm
    ascending in degrevlex, k, new) with the product and chain criteria.
    They wait in one list per lcm degree, sorted when that degree is
    reached: a new element's lead has the current degree and no earlier
    lead divides it, so its pairs all have higher lcm degrees.  So a pair
    still waits exactly when it comes after the current one, which the
    chain criterion reads.  The rest of a degree is skipped, pair by pair,
    once the Hilbert bound shows that it reduces to zero (see the module
    docstring): _hilbert_values of a lower bound for HS(S/I) * (1-t)^4.

    A bound the caller passes is a certificate the run must meet: at the
    first finished degree whose standard monomials outnumber it, or at an
    S-polynomial above ring's degree cap, the call returns None.  With None
    the call steers by the _ci_numerator of the kept generators' degrees
    and a degree 1 for each of the four variables ring does not pack (z3
    for the section's three), when there are at most four in all, and by no
    bound with more; a finished degree above that bound shows that I is no
    complete intersection of the kept generators, and the walk stops there.

    Raises ResourceLimitError when more than pair_cap pairs are processed
    (skipped and pruned pairs count), an S-polynomial that no criterion
    pruned exceeds the degree cap, past which its exponents would not fit
    their packed fields, or the divisions of the call make more than
    MAX_BUCHBERGER_POPS heap pops.
    """
    divide, element, steps, guard, width, cap = ring
    low, ones = guard - sum(steps), (1 << width) - 1  # m % ones is m's degree
    gens = [g for g in generators if g]
    if any(0 in g for g in gens):
        return [(0, 1, [])]
    budget = [MAX_BUCHBERGER_POPS]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    # ascending degrevlex by lead, the smallest int of its degree
    for g in sorted(gens, key=lambda g: (min(g) % ones, -min(g))):
        r, _ = divide(dict(g), basis, budget)
        if r:
            basis.append(element(r))

    lead = []
    leads_of_degree = {}  # degree -> the leads of that degree, for the Hilbert walk
    waiting = {}  # lcm degree -> [(-lcm, k, new)], sorted to pop lcm ascending in degrevlex

    def add_lead(m):
        new = len(lead)
        lead.append(m)
        leads_of_degree.setdefault(m % ones, set()).add(m)
        for k in range(new):
            top = _lcm(lead[k], m, guard, width)
            waiting.setdefault(top % ones, []).append((-top, k, new))

    for e in basis:
        add_lead(e[0])
    certify = bound is not None
    if not certify and len(gens) <= len(steps):
        # the kept generators and any variable not packed (z3, on three):
        # they generate I, and are no more
        bound = _ci_numerator([m % ones for m in lead] + [1] * (4 - len(steps)))
    if bound is not None:
        values = _hilbert_values(bound)
        least = next(values)  # the bound at std_degree, advanced with it
    standard, std_degree = {0}, 0  # standard monomials of std_degree
    walked = processed = 0
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
            if bound is not None:
                while std_degree < degree and walked <= MAX_STANDARD_WALK:
                    if len(standard) > least:  # the walk stops, here at every later pair
                        if certify:
                            return None
                        break
                    walked += len(standard)
                    std_degree += 1
                    standard = _next_standard(standard, leads_of_degree.get(std_degree, ()),
                                              steps, low, guard)
                    least = next(values)
                if std_degree == degree and len(standard) == least:
                    continue  # the leads span in(I)_degree: the pair reduces to zero
            if not (lead[i] + low) & (lead[j] + low) & guard:
                continue  # coprime leads
            top = _lcm(lead[i], lead[j], guard, width)
            chained = False
            for k, other in enumerate(lead):
                q = top - other
                if q < 0 or q & guard or k == i or k == j:  # not _divides(other, top), inline
                    continue
                # of (i, k) and (j, k), only one with lcm top that comes after
                # (i, j) still waits
                if not (k > j and _lcm(lead[i], other, guard, width) == top
                        or k > i and _lcm(lead[j], other, guard, width) == top):
                    chained = True
                    break
            if chained:
                continue
            if degree > cap:
                if certify:
                    return None  # a miss, as a give-up is
                raise ResourceLimitError(
                    f"buchberger: S-polynomial of degree {degree} exceeds degree cap {cap}")
            r, _ = divide(_s_polynomial_terms(basis[i], basis[j], top), basis, budget)
            if not r:
                continue
            basis.append(element(r))
            add_lead(basis[-1][0])
            standard.discard(lead[-1])  # a lead of the pair degree is not standard
    return basis


def buchberger(generators, pair_cap: int = DEFAULT_PAIR_CAP):
    """Reduced degrevlex Groebner basis, monic and sorted by ascending lead:
    _reduced_basis of _groebner_elements, whose arguments and errors it
    takes."""
    return _reduced_basis(_groebner_elements([g._cleared[1] for g in generators], pair_cap))


# ---------------------------------------------------------------------------
# graded ideals


class GradedIdeal:
    """Homogeneous ideal with cached Groebner basis and Hilbert data.

    Generators of one term each are their own basis from construction.
    Otherwise the first query runs Buchberger and keeps the integer basis
    elements, except a Hilbert query that the hyperplane section certifies,
    which keeps no basis (see the module docstring).  _conormal, a wedge's
    (c_a, c_b) from forms, stays past that query only if certified.
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
        if all(len(g._cleared[1]) == 1 for g in gens):  # a basis: their minimal monomials
            leads = _minimalize(m for g in gens for m in g._cleared[1])
            self._elements = [(m, 1, []) for m in leads]
        self._gb = self._lead = None
        self._numerator = self._conormal = self._hilbert = self._resolution = None

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
        """The integer basis elements of _groebner_elements, computed once."""
        if self._elements is None:
            self._elements = _groebner_elements([g._cleared[1] for g in self.generators])
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
        empty for the unit ideal.  The section, before any basis exists, for
        a wedge ideal or at most MAX_SECTION_FORMS forms, or else the lead
        ideal of the basis, which is kept, answers (see the module
        docstring).  Each call returns a fresh dict."""
        return dict(self._hilbert_numerator())

    def _hilbert_numerator(self) -> dict:
        """hilbert_numerator's kept dict itself, computed on the first call,
        for the readers here and in resolution, which never change it."""
        if self._numerator is None:
            if self._elements is None and (self._conormal
                                           or len(self.generators) <= MAX_SECTION_FORMS):
                from .section import _certified_numerator

                self._numerator, self._conormal = _certified_numerator(self.generators,
                                                                       self._conormal)
            if self._numerator is None:  # the basis answers; no conormal bound is certified
                self._numerator = dict(_minimal_numerator(self._packed_lead()))
                self._conormal = None
        return self._numerator

    def hilbert_function(self, k: int) -> int:
        """dim (S/I)_k, exact in every degree."""
        return _ci_hilbert_function(self._hilbert_numerator(), k)

    def hilbert_polynomial(self) -> HilbertPolynomial:
        """The Hilbert polynomial of S/I, computed on the first call and
        kept (see HilbertPolynomial.from_numerator)."""
        if self._hilbert is None:
            self._hilbert = HilbertPolynomial.from_numerator(self._hilbert_numerator())
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
