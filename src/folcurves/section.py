"""Hilbert numerators certified on a hyperplane section, over F_P.

Hilbert data of up to groebner.MAX_SECTION_FORMS = 3 forms, and of the
coefficients of a wedge of two 1-forms, mostly come without a basis in
four variables; a generic linear section keeps them
(Bayer and Stillman, Invent. Math. 87, 1987).  For a plane z3 = l of
PLANES, the first l = z0 + 2*z1 + 3*z2, _certifies cuts each form f_i to
f_i(z0, z1, z2, l), a form in z0..z2, and runs Buchberger on the cut forms
alone, in three variables.  With z3 they generate the image of
I + (z3 - l) under the change of coordinates z3 -> z3 + l, so the two
ideals have one Hilbert series; z3's lead is coprime to theirs, so it
only joins the leads at the end.

The run certifies a lower bound B(d) <= H(S/I)(d), B = N(t) / (1-t)^4, of
one of three kinds:
  - the Koszul bound, N = prod(1 - t^d_i), for forms of degrees d_i (see
    groebner: the rank of the map onto I_d only drops under specialization,
    and up to four generic forms are a regular sequence);
  - the line bound, for three forms in a coordinate line ideal
    P = (z_a, z_b).  Write f_i = z_a*a_i + z_b*b_i, C = (2, d1, d2, d3) and
    s = d1 + d2 + d3.  P/I is the cokernel of
    [[-z_b, a_1, a_2, a_3], [z_a, b_1, b_2, b_3]] from
    S(-2) + S(-d1) + S(-d2) + S(-d3) to S(-1)^2.  When the maximal minors
    have codimension 3, the Buchsbaum-Rim complex
    0 -> S(1-s)^2 -> sum of S(2 - sum T) over the 3-subsets T of C -> ...
    resolves P/I (Buchsbaum and Rim, Trans. AMS 111, 1964; Eisenbud,
    Commutative Algebra, GTM 150, A2.6), so HS(S/P) + HS(P/I) has
    N = (1-t)^2 + 2t - sum_(c in C) t^c + sum_T t^(sum T - 2) - 2t^(s-1).
    Off the line z_a = z_b = 0 the minors vanish exactly on V(I), and on it
    where the 2x2 minors of the a_i, b_i do; for generic a_i, b_i both
    sets are finite.  So the generic triple of these degrees in P has
    codimension 3, and by the same semicontinuity B bounds every triple;
  - the conormal bound of a wedge, _conormal_bound (below), which
    _certified_numerator tries first when forms recorded (c_a, c_b).
Three forms with one such line and none smaller take the line bound; any
other r forms whose exponents show a subspace z_A = 0, |A| < r, on which
all of them vanish are no regular sequence and take groebner's exact
route uncut.  These are forms with a common variable factor and forms in
two coordinate line ideals, whose curves hold two lines (Hilbert
polynomial 2t + c).

One sandwich proves each certificate.  Let J be the ideal over Q of the
integer cut forms (each form's cleared integer terms, cut) and z3, J_P
that of their residues mod P, and L the ideal of z3 and the leads the run
computes, lifted to four variables.  In every degree d:
  - H(S/I)(d) <= sum_(e <= d) H(S/J)(e), since multiplication by z3 - l
    maps (S/I)_(e-1) to (S/I)_e with cokernel (S/(I + (z3 - l)))_e;
  - H(S/J)(e) <= H(S/J_P)(e): J_e is spanned by the monomial multiples of
    the generators, and a minor of their integer coefficient matrix that
    is nonzero mod P is nonzero over Q (the one-sided fact behind modular
    Groebner methods; Arnold, J. Symbolic Comput. 35, 2003);
  - H(S/J_P)(e) <= H(S/L)(e), since L lies in in(J_P).
When L has the numerator N(1-t), the sum of its Hilbert function up to d
is B(d), so B(d) <= H(S/I)(d) <= B(d) and the answer is N.  Nothing here
asks the run to skip soundly: a Hilbert skip on a bad bound drops leads,
which the last step allows.  The run takes N(1-t) as a certificate, whose
coefficients over (1-t)^4 are the Hilbert function in z0..z2 that its
walk of standard monomials counts, and gives up at the first finished
degree where they outnumber it; L can then never reach N(1-t).  A miss
(a cut that vanishes mod P, a give-up or another numerator) is tried once
more on the second plane, l = 7*z0 - 3*z1 + 2*z2, and then falls through
to groebner's exact route, so no answer depends on P or the planes.  Nothing above the
degree caps is cut (see MAX_SECTION_DEGREE).

The conormal bound: let a, b be projective 1-forms with coefficients of
degrees c_a, c_b, w = a ^ b != 0 and d = c_a + c_b - 1, the foliation's
degree in the paper's 0 -> N* -> Omega^1 -> I_Z(d-1) -> 0.  Then w =
i_R i_v vol for a vector field v of degree d, the coefficients of w are
the z_i v_j - z_j v_i, and I_k = i_v H^0(Omega^1(t)), t = k - d + 1, as
the g*(z_i dz_j - z_j dz_i) span H^0(Omega^1(t)).
i_v w = 0 gives i_v a = i_v b = 0, and S*a + S*b is direct, so
H(S/I)(k) >= C(k+3, 3) - h^0(Omega^1(t)) + h^0(O(t-1-c_a)) +
h^0(O(t-1-c_b)): by the Koszul resolution of H^0_*(Omega^1),
N = 1 - 6t^(d+1) + 4t^(d+2) - t^(d+3) + t^(d+c_a) + t^(d+c_b).  Once
certified, the kernel of i_v is S(-1-c_a) + S(-1-c_b), free, and local
cohomology of 0 -> it -> M -> I(d-1) -> 0, M = H^0_*(Omega^1), where
H^1_m(M) = 0 and H^2_m(M) = H^1_*(Omega^1) is one dimension in twist 0,
makes I saturated with h^1(I_Z(k)) = 1 at k = d - 1 and 0 elsewhere: Rao
profile {c_a + c_b - 2: 1}.  A common factor lifts H(S/I) above B: a miss.

The run is over F_P, P = 32749, the largest prime below 2^15, so that the
product of two residues fits in one 30-bit digit of a Python int, and so
does each monomial: it packs z0^e0 z1^e1 z2^e2 as e0 | e1 << 10 | e2 << 20
(_OVER_FP), a guard bit at the top of each field, up to degree 511, and
an S-polynomial above that is a miss.  Each form is cut mod P straight
into that packing by Horner's rule in z3, no power of l kept between
cuts: a running sum, reduced mod P, is multiplied by l once per exponent
of z3 below the form's top one, each exponent's terms added on the way.
Every element is kept monic, and a residue is reduced only when its term
is popped, so division needs no gcd and never rescales the work or the
remainder.

Of the 240 hilbert-pool ideals the first plane certifies 209 complete
intersections and 21 ideals in a coordinate line ideal, the second plane
4 and 2; the 4 left hold two lines, and 2 of them are refused uncut.  On
1000 draws of the pool's kind from Random(4242) the counts are 840 and
120, 22 and 4, with 14 left.  Measured on a 2-vCPU x86_64 machine under
Python 3.11, in CPU time, the median over 9 interleaved rounds of the best
of 5 passes, against the former run on four variables with z3 as a
generator: the pool's certificates took 145 ms against 173 ms, the Hilbert
queries of the 21 took 12.5 ms against 16.1 ms and those of the 6 7.5 ms
against 9.4 ms; those of the 4 left, which take the exact route, 25 ms.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from . import groebner
from .polyring import NVARS, _FIELD, _STEPS

P = 32749  # the largest prime below 2^15 (see the module docstring)
# Largest form degree cut for the first two bounds, and c_a + c_b for the
# conormal bound.  A sparse form turns dense on the section: on a 2-vCPU
# x86_64 machine under Python 3.11 (CPU time, medians as in the module
# docstring) z0^d + z3^d, z1^d + z2^d, z2^d - z3^d took 0.008 s to certify
# at d = 8 and 0.051 s at d = 12, against 0.003 and 0.013 s by the exact
# route on four variables, and the contact form's wedge with a seeded
# 1-form of degree 20, 23 and 28 took 0.055, 0.085 and 0.166 s.
# The hilbert pool has degrees 3 and 4; CI's largest wedge has c_a + c_b = 24.
MAX_SECTION_DEGREE = 8
_MAX_CONORMAL_DEGREE = 24
# The hyperplanes z3 = l tried in turn, each l as its coefficients of z0,
# z1, z2; all nonzero, so neither holds a coordinate point
PLANES = ((1, 2, 3), (7, -3, 2))
# The run's packing of z0, z1, z2 and its guard mask (see the module docstring)
_CUT_STEPS = (1, 1 << 10, 1 << 20)
_CUT_GUARD = 1 << 9 | 1 << 19 | 1 << 29


def _section_cut(f, plane: int = 0) -> dict:
    """f(z0, z1, z2, l) for the l of PLANES[plane] times f's denominator, its
    coefficients reduced mod P into [1, P): the terms, packed as the run
    packs them, of a form in z0..z2 of f's degree, at most 511; empty when
    the cut vanishes mod P.  By Horner's rule in z3: from f's top exponent
    of z3 down, that exponent's terms, z3 removed, plus l times the
    running sum."""
    by_z3 = {}
    for m, c in f._cleared[1].items():  # z0..z2 moved to the run's fields
        by_z3.setdefault(m >> 96, {})[m & 1023 | m >> 22 & 1023 << 10 | m >> 44 & 1023 << 20] = c
    steps, acc = tuple(zip(_CUT_STEPS, PLANES[plane])), {}
    for e in range(max(by_z3, default=0), -1, -1):
        out = by_z3.get(e, {})
        for m, c in acc.items():
            for step, k in steps:
                out[m + step] = out.get(m + step, 0) + k * c
        acc = {m: r for m, c in out.items() if (r := c % P)}
    return acc


def _lift(m: int) -> int:
    """The monomial m of the run's packing in polyring's."""
    return m & 1023 | (m >> 10 & 1023) << 32 | (m >> 20) << 64


def _divide(work: dict, table, budget):
    """groebner._divide over F_P, for monic elements in the run's packing:
    the remainder, its residues in [1, P), of the integer terms work
    (consumed), and 1.  A term's residue is taken when it is popped; until
    then it is any integer."""
    heap = list(work)
    heapify(heap)
    remainder = {}
    left = budget[0]
    while heap:
        m = heappop(heap)
        left -= 1
        if left < 0:
            raise groebner._pop_cap_error(_lift(m))
        c = work.pop(m) % P  # no term leaves work before its pop: the heap holds each once
        if not c:
            continue
        for lead, _, tail in table:
            q = m - lead
            if q >= 0 and not q & _CUT_GUARD:
                for gm, gc in tail:
                    mm = gm + q
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -c * gc
                        heappush(heap, mm)
                    else:
                        work[mm] = v - c * gc
                break
        else:
            remainder[m] = c
    budget[0] = left
    return remainder, 1


def _monic_element(terms: dict):
    """The monic basis element over F_P of nonzero residues terms."""
    lead = min(terms)
    inverse = pow(terms[lead], -1, P)
    return lead, 1, [(m, c * inverse % P) for m, c in terms.items() if m != lead]


# The run's arithmetic and packing, as groebner._groebner_elements takes
# them: over F_P in three 10-bit fields, up to degree 511.  The largest
# S-pair degree a run reaches over tier-1, the demos, CI's steps and both
# benchmark pools is 45, for CI's wedge query of degree 23.
_OVER_FP = (_divide, _monic_element, _CUT_STEPS, _CUT_GUARD, 10, 511)


def _line_bound(degrees) -> dict:
    """N(t), a groebner._series: for three forms of these degrees in a
    coordinate line ideal P, N(t) / (1-t)^4 is a coefficientwise lower
    bound for HS(S/I), and HS(S/I) itself when the Buchsbaum-Rim complex
    resolves P/I (see the module docstring).  With C = (2, d1, d2, d3) and
    s = d1 + d2 + d3, N = 1 + t^2 + sum over c in C of (t^(s-c) - t^c) -
    2t^(s-1)."""
    s, C = sum(degrees), (2, *degrees)
    return groebner._series([(0, 1), (2, 1), (s - 1, -2), *((s - c, 1) for c in C),
                             *((c, -1) for c in C)])


def _conormal_bound(c_a: int, c_b: int) -> dict:
    """The conormal bound's N(t), a groebner._series, for 1-forms with
    coefficients of degrees c_a and c_b (see the module docstring)."""
    d = c_a + c_b - 1
    return groebner._series([(0, 1), (d + 1, -6), (d + 2, 4), (d + 3, -1), (d + c_a, 1),
                             (d + c_b, 1)])


def _certifies(generators, numerator: dict) -> bool:
    """Whether, on a plane of PLANES, tried in turn, the F_P run on the cuts
    ends on leads that, lifted to four variables and with z3, have the
    Hilbert numerator numerator * (1-t), for a lower bound numerator of
    HS(S/I) * (1-t)^4 proven as in the module docstring; a plane misses
    when a cut vanishes mod P or the run gives up."""
    # times 1 - t, the factor of z3
    target = groebner._series([*numerator.items(), *((a + 1, -c) for a, c in numerator.items())])
    for plane in range(len(PLANES)):
        cuts = [_section_cut(g, plane) for g in generators]
        elements = all(cuts) and groebner._groebner_elements(cuts, ring=_OVER_FP, bound=target)
        if elements and dict(groebner._minimal_numerator(groebner._minimalize(
                [_STEPS[3], *(_lift(e[0]) for e in elements)]))) == target:
            return True
    return False


def _section_numerator(generators):
    """hilbert_numerator of the generators, nonzero forms, when a section
    run certifies it (see the module docstring); None when none does, or
    when there are more forms than groebner.MAX_SECTION_FORMS, which the
    bounds need, or one is constant or of degree above MAX_SECTION_DEGREE,
    or their exponents show a coordinate subspace
    z_A = 0 that no bound covers.  That is a set A of fewer indices than
    forms at which every monomial of every form has a positive exponent,
    other than one pair A = {a, b} for three forms, which the line bound
    takes; nothing is cut then."""
    degrees = [g.degree for g in generators]
    if (not 0 < len(degrees) <= groebner.MAX_SECTION_FORMS or min(degrees) < 1
            or max(degrees) > MAX_SECTION_DEGREE):
        return None
    supports = {sum(1 << v for v in range(NVARS) if m >> 32 * v & _FIELD)
                for g in generators for m in g._cleared[1]}
    covers = [a for a in range(1, 1 << NVARS)  # A as a bit mask
              if a.bit_count() < len(degrees) and all(s & a for s in supports)]
    # one cover of three forms is a pair: a single index lies in three pairs
    if len(covers) > 1 or covers and len(degrees) < 3:
        return None
    numerator = _line_bound(degrees) if covers else groebner._ci_numerator(degrees)
    return numerator if _certifies(generators, numerator) else None


def _certified_numerator(generators, conormal):
    """(N, conormal) when a section run certifies the conormal bound N for
    conormal = (c_a, c_b), c_a + c_b <= _MAX_CONORMAL_DEGREE, of the wedge
    whose coefficients the generators are; else (_section_numerator, None)."""
    if conormal is not None and sum(conormal) <= _MAX_CONORMAL_DEGREE:
        numerator = _conormal_bound(*conormal)
        if _certifies(generators, numerator):
            return numerator, conormal
    return _section_numerator(generators), None
