"""Graded syzygies, minimal free resolutions and Rao profiles: the first
cohomology of a curve's ideal sheaf, twist by twist, from graded duality
applied to the dualized tail of the resolution, so no saturation is ever
computed.

Everything is exact.  A resolution reads the ideal's basis elements and
Hilbert data from groebner, and eliminates with linalg.  This module is
apart from groebner so that a Hilbert query loads neither it nor linalg;
groebner still answers for its public names, and kernel_of_columns,
importing it on the first such read.

Resolutions are built layer by layer and degree by degree.  Exactness and
the Hilbert function of S/I give the dimension of the kernel each layer
must cover in each degree; new generators are sought only where the
multiples of those found so far fall short of it.  Each degree piece of
each differential has its kernel taken once (as in La Scala and Stillman,
"Strategies for computing minimal free resolutions", J. Symbolic
Comput. 26, 1998).  The image check of layer L in degree e takes the
kernel of the multiples so far, whose rank is their count less the
kernel's length; with no generators yet it is answered without a matrix.
The generators it then finds are independent of them and come last, so
that kernel is also the kernel of d_L in degree e, and layer L + 1 takes
it; it eliminates d_L itself only in degrees layer L never reached.  Where
the rank falls short by missing, the new generators sit at the free rows,
no pivot of the echelon form the image check's elimination leaves, whose
pivots are those of the independent images: as a stored row is reduced at
the pivots stored before it, the image meets the free coordinates in zero,
and with them spans the space.  On determining rows (below) they are the
free rows' unit vectors; where the layer below never reached, the kernel
of d_(L-1), built on the free columns only, of dimension missing.

The multiples of layer L in degree e all lie in ker(d_(L-1))_e, so where a
set of rows determines its elements, the image check and the echelon form
see only those rows.  Such rows are
  - in layer 1, and for the kernel of d_1 that layer 2 takes in degrees
    layer 1 never reached, the monomials of in(I)_e: an f in I_e that
    vanishes on them is zero, as f - sum f[m] * (m - NF(m)) is in I_e and
    has standard support;
  - in layer L >= 2, in a degree the layer below reached, the dependent
    columns max(z) of the kernel it took there: each kernel vector is
    nonzero on its own and zero on the others.
Either way unit vector i is m - NF(m) in layer 1 and kernel vector i above
it.  Elsewhere the rows are all of F_(L-1) in degree e.  The row count is
the kernel dimension on a second route, and is checked against it.  One
builder makes every degree matrix on the column and row keys its caller
gives, in integers over one denominator, which keeps its kernel.

The order of the rows sets the pivots, and so the fill-in, of an
elimination, but not its kernel, which kernel_of_columns gives in one
canonical form.  In layer L >= 2 the image check renumbers its rows of
F_(L-1), determining or full, by ascending nonzero count, ties by index,
and reads the free rows back through that numbering: eliminating the
sparsest rows first keeps the fill-in low (Markowitz, Management Science
3, 1957).  Rows that are monomials of S, in layer 1's image checks and in
the kernels of d_1 that layer 2 takes in degrees layer 1 never reached,
keep degrevlex order: there the matrices are nearly triangular, and the
sparse-first order makes them slower.

Each layer stops at a last degree proven from the input, and one degree
past it is a safety margin.  Generator twists in layer L never exceed
reg(S/I) + L, which is bounded through the lead-term quotient.  Layer 1
also stops at the largest given generator degree: the given generators
span I, and each is in the image once its degree is checked.  When
hilbert_numerator() is prod(1 - t^d_i) over the r given generators,
dim S/I = 4 - r, so they are a regular sequence; their Koszul complex is
the minimal resolution, and layer L stops at the sum of the L largest d_i.
Each target is met by both the kernel length and the rank, a dimension
audit over all degrees up to regularity_bound() + 6 cross-checks the
result, and a complete intersection's twists are checked against its
Koszul complex's.

Rao profiles read h^1(I_C(k)) as the third Ext module of S/I, taken on the
dualized resolution (Rao, Invent. Math. 50, 1979): at twist k it is
dim3 - rank4 - rank3, where dim3 is the piece of F_3^* there and rank3,
rank4 are the ranks of the transposed d_3 into it and d_4 out of it.  Each
rank eliminates a degree matrix of the transposed differential, from the
same builder, until it reaches the dimension of the codomain piece.  The
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

from math import lcm

from .errors import (
    CrossCheckFailureError,
    DegreeMismatchError,
    NotACurveError,
    ResourceLimitError,
    WindowTooSmallError,
)
from .groebner import GradedIdeal, _ci_numerator, _divide
from .linalg import Echelon, kernel_of_columns, sparse_first
from .polyring import (
    HomogeneousPolynomial,
    _from_integers,
    graded_piece_dimension,
    mono_degree,
    packed_monomials,
    sum_of_products,
)
from .records import Record

# Largest graded piece of a dualized resolution module that a Rao profile
# may eliminate over; pieces grow like C(-k, 3) as the twist k falls.  The
# largest any shipped demo, benchmark input or test curve reaches is 60
# (legendrian degree 7, twist 5), but for two probes whose walk never stops
# early: a line with an embedded point (1680 at twist -14, refused at -15)
# and a truncated ideal, F_4 != 0 (560).
MAX_DUAL_PIECE = 2000
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
    columns = _degree_matrix([{0: p} for p in row], basis, _degree_basis([0], target_degree))
    out = []
    for den, combo in kernel_of_columns(columns):
        element = _element(combo, basis, den)
        out.append(
            tuple(
                element.get(slot, HomogeneousPolynomial.zero(target_degree - w))
                for slot, w in enumerate(weights)
            )
        )
    return out


def _degree_basis(twists, degree):
    """Index map for the degree-e piece of (+) S(b): list of (slot, packed
    monomial), each slot's monomials in descending degrevlex."""
    return [(slot, m) for slot, b in enumerate(twists) for m in packed_monomials(degree + b)]


def _degree_matrix(columns, basis, rows):
    """A degree piece of the map (+) S(b_j) -> (+) S(c_i) sending the j-th
    generator to columns[j], a map from target slot to polynomial, on the
    keys it is given: one sparse integer column per key of basis, over the
    indices of the keys rows, both lists of _degree_basis keys of its
    source and its target; entries in other rows are dropped.  Every
    polynomial it multiplies is cleared under one denominator, the lcm of
    theirs, which keeps the kernel and the rank."""
    row_index = {key: i for i, key in enumerate(rows)}.get
    slots = {slot for slot, _ in basis}
    den = lcm(*(p._cleared[0] for slot in slots for p in columns[slot].values()))
    cleared = {slot: [(target, den // p._cleared[0], p._cleared[1])
                      for target, p in columns[slot].items()] for slot in slots}
    matrix = []
    for slot, m in basis:
        vec = {}
        for target, s, terms in cleared[slot]:
            # kept inline: the hot loop of every degree matrix
            for pm, pc in terms.items():
                i = row_index((target, pm + m))
                if i is not None:
                    vec[i] = pc * s
        matrix.append(vec)
    return matrix


def _element(vec, basis, den):
    """The element vec / den over the _degree_basis keys basis, as a map
    from slot to homogeneous polynomial of its monomials' degree; the
    entries of vec are nonzero ints, den a positive int."""
    slots = {}
    for ci, c in vec.items():
        slot, m = basis[ci]
        slots.setdefault(slot, {})[m] = c
    return {slot: _from_integers(mono_degree(next(iter(terms))), den, terms)
            for slot, terms in slots.items()}


# ---------------------------------------------------------------------------
# minimal free resolutions


class FreeResolution(Record):
    """Minimal graded free resolution of S/I; each layer stops at a proven
    last degree, and bound only limits the final dimension audit.

    twists[i] lists the signed twists b with F_i = (+) S(b); twists[0] = [0].
    differentials[i] holds the columns of d_{i+1} : F_{i+1} -> F_i, each a
    map from F_i slot index to a homogeneous polynomial.
    """

    __slots__ = ("twists", "differentials", "bound")

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
    """Minimal graded free resolution of S/I, computed by _resolve on the
    first call and kept on the ideal; a call that raises keeps nothing."""
    if ideal._resolution is None:
        ideal._resolution = _resolve(ideal)
    return ideal._resolution


def _resolve(ideal: GradedIdeal) -> FreeResolution:
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
                index = {m: i for i, (_, m) in enumerate(basis)}
                found = []
                for i in free:
                    # den times m - NF(m); the normal form is unique, so
                    # dividing by the unreduced elements gives the same one
                    m = rows[i][1]
                    r, den = _divide({m: 1}, elements)
                    z = {index[m]: den}
                    for rm, c in r.items():
                        z[index[rm]] = -c
                    found.append((den, z))
            elif e in below:  # the kernel vectors nonzero on the free rows
                found = [below[e][i] for i in free]
            else:  # a degree the layer below never reached: the kernel on the free columns
                if layer == 2:  # d_1 maps onto I_e, of dimension the rank of d_1
                    kernel_rows = checked(lead_rows(e), res.layer_dimension(1, e) - target, where)
                else:
                    kernel_rows = _degree_basis(res.twists[layer - 2], e)
                matrix = _degree_matrix(res.differentials[layer - 2],
                                        [basis[i] for i in free], kernel_rows)
                found = [(den, {free[k]: x for k, x in z.items()})
                         for den, z in kernel_of_columns(matrix)]
                if len(found) != missing:
                    raise ResourceLimitError(f"{where}: kernel dimension audit failed")
            for den, z in found:
                twists.append(-e)
                columns.append(_element(z, basis, den))
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


class RaoProfile(Record):
    """Per-twist first cohomology of a curve's ideal sheaf: profile maps a
    twist to its nonzero h^1, total sums them, window is (lo, hi)."""

    __slots__ = ("profile", "total", "window")

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
    for vec in _degree_matrix(transposed, _degree_basis([-b - 4 - k for b in twists_dom], 0),
                              _degree_basis([-b - 4 - k for b in twists_cod], 0)):
        if ech.rank == ceiling:
            break
        ech.insert(vec)
    return ech.rank
