"""Complete intersections certified on a hyperplane section, over F_P.

Hilbert data of up to three forms mostly come without a basis in four
variables; a generic linear section keeps them (Bayer and Stillman,
Invent. Math. 87, 1987).  Take l = z0 + 2*z1 + 3*z2: the hyperplane
z3 = l holds no coordinate point.  _section_numerator cuts each form f_i
to f_i(z0, z1, z2, l), a form in z0..z2, and runs Buchberger on the cut
forms and z3.  These generate the image of I + (z3 - l) under the change
of coordinates z3 -> z3 + l, so the two ideals have one Hilbert series.
When it is the complete-intersection series of the degrees d_1, ..., d_r,
1, the answer is certified in three lines:
  - f_1, ..., f_r, z3 - l generate an ideal of height r + 1 (as in
    resolution._koszul_degrees), so they are a regular sequence;
  - a homogeneous regular sequence of positive degrees stays regular in
    any order, so f_1, ..., f_r is one;
  - so HS(S/I) = prod(1 - t^d_i) / (1 - t)^4.
Otherwise groebner's four-variable route answers.  With z3 among its
generators the certifying run walks only standard monomials in z0..z2; it
gives up at the first finished degree where they outnumber H_CI, which
shows that the cut forms are no regular sequence.  Forms above
MAX_SECTION_DEGREE are never cut: a sparse form turns dense on the
section.  Nor are r forms that all vanish on a coordinate subspace
z_A = 0 with |A| < r, which their exponents show: their ideal has height
at most |A|, so they are no regular sequence.

The run is over F_P, P = 32749, the largest prime below 2^15, so that the
product of two residues fits in one 30-bit digit of a Python int.  Let J
be the ideal over Q of the integer cut forms (each form's cleared integer
terms, cut) and z3, and J_P that of their residues.  In every degree d,
dim J_d >= dim (J_P)_d: J_d is spanned by the monomial multiples of the
generators, and a minor of their integer coefficient matrix that is nonzero
mod P is nonzero over Q (the one-sided fact behind modular Groebner
methods; Arnold, J. Symbolic Comput. 35, 2003).  H_CI is a lower bound
over any field (see groebner), so H_CI <= H_(S/J) <= H_(S/J_P), and
H_(S/J_P) = H_CI certifies H_(S/J) = H_CI.  A miss (a give-up, a cut that
vanishes mod P or a numerator that differs) falls through to groebner's
exact route, so no answer depends on P.

Each form is cut mod P with l^e tabulated mod P.  Every element is kept
monic, and a residue is reduced only when its term is popped, so division
needs no gcd and never rescales the work or the remainder.  Measured on a
2-vCPU x86_64 machine under Python 3.11, in CPU time, the median of 9
interleaved rounds of the best of 5 passes: the certificate over the 240
hilbert-pool ideals took 186 ms over Q and 145 ms over F_P (-22%), and it
certifies the same 209 of them.  On 1000 draws of the pool's kind from
another seed it certifies the 840 the certificate over Q does.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from . import groebner
from .errors import ResourceLimitError
from .polyring import NVARS, _FIELD, _GUARD, _STEPS, _wrap, mono_degree

P = 32749  # the largest prime below 2^15 (see the module docstring)
# Largest generator degree the section route cuts.  A sparse form turns
# dense on the section: on a 2-vCPU x86_64 machine under Python 3.11,
# z0^d + z3^d, z1^d + z2^d, z2^d - z3^d took 0.010 s to certify at d = 8
# against 0.003 s for the four-variable route, and 0.058 s against 0.013 s
# at d = 12 (over Q the certificate took 0.036 s and 3.5 s).  The
# hilbert-pool ideals have degree 3 or 4.
MAX_SECTION_DEGREE = 8

_Z3 = _wrap(1, 1, {_STEPS[3]: 1})
_POWERS = [{0: 1}]  # l^e mod P for e < len(_POWERS), packed


def _power(e: int) -> dict:
    """l^e mod P, for e <= MAX_SECTION_DEGREE."""
    while len(_POWERS) <= e:
        acc = {}
        for m, c in _POWERS[-1].items():
            for step, k in zip(_STEPS, (1, 2, 3)):  # l = z0 + 2*z1 + 3*z2
                acc[m + step] = (acc.get(m + step, 0) + k * c) % P
        _POWERS.append({m: c for m, c in acc.items() if c})
    return _POWERS[e]


def _section_cut(f):
    """f(z0, z1, z2, l) times f's denominator, its coefficients reduced mod
    P into [1, P): a form in z0..z2 of f's degree, zero when the cut
    vanishes mod P."""
    acc = {}
    for m, c in f._cleared[1].items():
        e = m >> 96  # the exponent of z3
        m -= e << 96
        c %= P
        for pm, pc in _power(e).items():
            acc[m + pm] = acc.get(m + pm, 0) + c * pc
    return _wrap(f.degree, 1, {m: c % P for m, c in acc.items() if c % P})


def _divide(work: dict, table, budget):
    """groebner._divide over F_P, for monic elements: the remainder, its
    residues in [1, P), of the integer terms work (consumed), and 1.  A
    term's residue is taken when it is popped; until then it is any integer."""
    heap = list(work)
    heapify(heap)
    remainder = {}
    left = budget[0]
    while heap:
        m = heappop(heap)
        left -= 1
        if left < 0:
            raise ResourceLimitError(
                f"buchberger, degree {mono_degree(m)}: divisions exceed the work cap of "
                f"{groebner.MAX_BUCHBERGER_POPS} heap pops")
        c = work.pop(m) % P  # no term leaves work before its pop: the heap holds each once
        if not c:
            continue
        for lead, _, tail in table:
            q = m - lead
            if q >= 0 and not q & _GUARD:
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
    cuts = [_section_cut(g) for g in generators]
    if not all(cuts):
        return None
    elements = groebner._groebner_elements(cuts + [_Z3], give_up=True,
                                           divide=_divide, element=_monic_element)
    if elements is None:
        return None
    lead = groebner._minimalize(e[0] for e in elements)
    # z3 has degree 1
    if dict(groebner._minimal_numerator(lead)) != groebner._ci_numerator(degrees + [1]):
        return None
    return dict(sorted(groebner._ci_numerator(degrees).items()))
