"""The section run as it was before it moved to three variables, kept
verbatim but for the names and the lines marked below: each form is cut
into polyring's packing of four variables, and Buchberger over F_P runs on
the cuts and z3 through groebner._groebner_elements, here given polyring's
packing with the former division and basis-element maker.  It is the oracle
of folcurves.section's run on three variables in 10-bit fields."""

from heapq import heapify, heappop, heappush

from folcurves import groebner
from folcurves.polyring import MAX_DEGREE, _GUARD, _STEPS, _wrap
from folcurves.section import P, PLANES

_Z3 = _wrap(1, 1, {_STEPS[3]: 1})


def _section_cut(f, plane: int = 0):
    """f(z0, z1, z2, l) for the l of PLANES[plane] times f's denominator, its
    coefficients reduced mod P into [1, P): a form in z0..z2 of f's degree,
    zero when the cut vanishes mod P.  By Horner's rule in z3: from f's top
    exponent of z3 down, that exponent's terms, z3 removed, plus l times
    the running sum."""
    by_z3 = {}
    for m, c in f._cleared[1].items():
        e = m >> 96  # the exponent of z3
        by_z3.setdefault(e, {})[m - (e << 96)] = c
    steps, acc = tuple(zip(_STEPS, PLANES[plane])), {}
    for e in range(max(by_z3, default=0), -1, -1):
        out = by_z3.get(e, {})
        for m, c in acc.items():
            for step, k in steps:
                out[m + step] = out.get(m + step, 0) + k * c
        acc = {m: r for m, c in out.items() if (r := c % P)}
    return _wrap(f.degree, 1, acc)


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
            raise groebner._pop_cap_error(m)
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


# the former divide and element pair, as groebner._groebner_elements now takes it
_OVER_FP_ON_FOUR = (_divide, _monic_element, _STEPS, _GUARD, 32, MAX_DEGREE)


def four_variable_run(generators, numerator: dict, plane: int):
    """(elements, certified) of the former run on one plane: the loop body
    of the former section._certifies, its elements False when a cut
    vanishes mod P and None when the run gives up."""
    # times 1 - t, the factor of z3
    target = groebner._series([*numerator.items(), *((a + 1, -c) for a, c in numerator.items())])
    cuts = [_section_cut(g, plane) for g in generators]
    # the cut forms' terms, as groebner._groebner_elements now takes them
    elements = all(cuts) and groebner._groebner_elements(
        [f._cleared[1] for f in cuts + [_Z3]], ring=_OVER_FP_ON_FOUR, bound=target)
    return elements, bool(elements) and dict(groebner._minimal_numerator(
        groebner._minimalize(e[0] for e in elements))) == target
