"""The resolution loop as it was before the lead ideal's Betti table
scheduled it, kept verbatim but for its name and for calling the former
FreeResolution._alternating_sum_mismatch, kept below as a function: layer L
visits every degree from its smallest source twist to one past
regularity_bound() + L (or past the largest given generator degree in layer
1), builds every column at once, and audits the alternating sum up to
regularity_bound() + 6.  It is the oracle of the scheduled resolution's
twists, differentials and deferred columns."""

from itertools import combinations

from folcurves.errors import CrossCheckFailureError, ResourceLimitError
from folcurves.groebner import GradedIdeal, _divide
from folcurves.linalg import Echelon, kernel_of_columns, sparse_first
from folcurves.polyring import _from_integers, mono_degree, packed_monomials
from folcurves.resolution import (
    FreeResolution,
    _degree_basis,
    _degree_matrix,
    _element,
    _koszul_degrees,
    graded_kernel,
)


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


def eager_resolve(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I.

    Layer L of the loop looks for generators up to a last degree, and runs
    its image check one degree further as a safety margin, where a missing
    generator raises ResourceLimitError.  The last degree is the smallest
    of these that apply, each proven from the input:
      - reg + L: generator twists of F_L never exceed reg(S/I) + L, and
        reg is regb = regularity_bound(), or for a complete intersection
        (_koszul_degrees) the smaller sum(d_i - 1), its regularity read
        off the Koszul complex; that sum never exceeds regb, so every
        Koszul twist is at most bound;
      - in layer 1, the largest degree of a given generator: the image
        check in each degree puts every given generator of that degree in
        the image, and the given generators span I, so past the largest
        the image is all of I_e.
    For a complete intersection the computed twists are then checked
    against the Koszul complex's; a mismatch raises CrossCheckFailureError
    naming its layer.  An alternating sum that misses H(e) in some degree
    e <= bound = regularity_bound() + 6 raises ResourceLimitError naming
    the first such e.  A set of determining rows (see the module docstring)
    whose size misses the dimension it determines raises
    CrossCheckFailureError naming its layer and degree.  New generators sit
    at the free rows, no pivot of the image check's own echelon form; a
    kernel of d_(L-1) built on the free columns only (see there) of the
    wrong length raises ResourceLimitError.
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
    # reg(S/I) is sum(d_i - 1) for a complete intersection, read off its
    # Koszul complex; that is at most regb unless regb is wrong, which the
    # safety margin then reports
    reg = regb if koszul is None else min(regb, sum(d - 1 for d in koszul))

    def lead_rows(e):
        """The keys (0, m) of the monomials m of in(I)_e, descending.  They
        determine the elements of I_e: an f in I_e that vanishes on them is
        zero, as f - sum f[m] * (m - NF(m)) is in I_e and has standard
        support."""
        return [(0, m) for m in sorted({g + q for g in lead_gens
                                        for q in packed_monomials(e - mono_degree(g))})]

    def checked(rows, dim, where):
        """rows, once their count is found to be dim, the dimension of what
        they determine, which the Hilbert function gives on a second route."""
        if len(rows) != dim:
            raise CrossCheckFailureError(
                f"{where}: {len(rows)} determining rows against dimension {dim}")
        return rows

    below = {}  # degree -> kernel of d_(layer-1) there, from the image checks of layer - 1
    for layer in range(1, 6):
        # no generator of F_layer lies past last (see the docstring)
        last = min(reg + 1, maxdeg) if layer == 1 else reg + layer
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
            basis = _degree_basis(source, e)
            # rows that determine the elements of ker(d_(layer-1))_e, where
            # known (unit vector i is m - NF(m), or kernel vector i); else all
            if layer == 1:
                rows = checked(lead_rows(e), target, where)
            elif e in below:
                rows = checked([basis[max(z)] for _, z in below[e]], target, where)
            else:
                rows = basis
            # the image check: one elimination of the multiples of the
            # generators found so far, in ech.  Those found in degree e are
            # independent of them and come last, so this kernel is also the
            # kernel of d_layer in degree e, which the next layer takes.
            ech = Echelon()
            images, kernel, new = [], [], range(len(rows))  # new: each row's index in images
            if columns:  # with no generators yet the image is zero
                images = _degree_matrix(columns, _degree_basis(twists, e), rows)
                if layer > 1:  # rows of F_(layer-1), not monomials of S
                    new = sparse_first(images, len(rows))
                kernel = kernel_of_columns(images, ech)
            kernels[e] = kernel
            missing = target - (len(images) - len(kernel))
            if not missing:
                continue
            if e == last + 1:
                raise ResourceLimitError(
                    f"{where}: resolution generator found at the safety margin degree"
                )
            # new generators sit at the free rows, no pivot of the image
            # check's echelon form, which holds the independent images' pivots
            free = [i for i in range(len(rows)) if new[i] not in ech.rows]
            if layer == 1:
                found = []
                for _, m in (rows[i] for i in free):
                    # m - NF(m); the normal form is unique, so dividing by
                    # the unreduced elements gives the same one
                    r, den = _divide({m: 1}, elements)
                    terms = {m: den} | {rm: -c for rm, c in r.items()}
                    found.append({0: _from_integers(e, den, terms)})
            elif e in below:  # the kernel vectors nonzero on the free rows
                found = [_element(z, basis, den) for den, z in (below[e][i] for i in free)]
            else:  # a degree the layer below never reached: the kernel on the free columns
                if layer == 2:  # d_1 maps onto I_e, of dimension the rank of d_1
                    kernel_rows = checked(lead_rows(e), res.layer_dimension(1, e) - target, where)
                else:
                    kernel_rows = _degree_basis(res.twists[layer - 2], e)
                found = graded_kernel(res.differentials[layer - 2],
                                      [basis[i] for i in free], kernel_rows)
                if len(found) != missing:
                    raise ResourceLimitError(f"{where}: kernel dimension audit failed")
            twists += [-e] * len(found)
            columns += found
        below = kernels
        if not twists:
            break
        if layer == 5:
            raise ResourceLimitError(
                f"layer 5, degree {-max(twists)}: resolution did not terminate at length 4"
            )
        res.twists.append(twists)
        res.differentials.append(columns)

    mismatch = _alternating_sum_mismatch(res, ideal.hilbert_function)
    if mismatch is not None:
        e, total, expected = mismatch
        raise ResourceLimitError(
            f"all layers, degree {e}: resolution dimension audit failed, "
            f"alternating sum {total} against H({e}) = {expected}"
        )
    if koszul is not None:
        # a second route to the Betti table: the Koszul complex of the degrees
        for layer in range(1, max(len(res.twists), len(koszul) + 1)):
            got = sorted(res.twists[layer]) if layer < len(res.twists) else []
            want = sorted(-sum(c) for c in combinations(koszul, layer))
            if got != want:
                raise CrossCheckFailureError(
                    f"layer {layer}: twists {got} differ from the Koszul twists {want} "
                    f"of the complete intersection of degrees {koszul}"
                )
    return res
