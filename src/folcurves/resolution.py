"""Graded syzygies, minimal free resolutions and Rao profiles: the first
cohomology of a curve's ideal sheaf, twist by twist, from graded duality on
the dualized tail of the resolution, so no saturation is ever computed.
Everything is exact.  This module is apart from groebner so that a Hilbert
query loads neither it nor linalg; groebner still answers for its public
names, and kernel_of_columns, importing it on the first such read.  It
reads groebner's basis elements and hilbert's numerators.

Resolutions are built layer by layer and degree by degree (La Scala and
Stillman, J. Symbolic Comput. 26, 1998).  Exactness and the Hilbert function
give the dimension of the kernel layer L must cover in degree e.  The image
check eliminates the multiples of the generators found so far once: their
rank is their count less its kernel's length.  The generators found in
degree e come last, so that kernel is also the kernel of d_L there, which
layer L + 1 takes, and they sit at the free rows, no pivot of its echelon
form: the image meets the free coordinates in zero, and with them spans.
Where rows that determine the elements of ker(d_(L-1))_e are known, it sees
only those: in layer 1 the monomials of in(I)_e (an f in I_e that vanishes
on them is zero, as f - sum f[m] * (m - NF(m)) is in I_e and has standard
support), and above it, in a degree the layer below reached, the dependent
columns max(z) of its kernel there.  Unit vector i is then a generator,
m - NF(m) or kernel vector i, and the count of rows is checked against the
Hilbert function.  Above layer 1 rows are eliminated sparsest first, which
keeps the fill-in low (Markowitz, Management Science 3, 1957); monomial
rows keep degrevlex order, in which those matrices are nearly triangular.

Each layer visits only the degrees a Betti table names: layer L visits e
only where beta_(L,e) + beta_(L+1,e) > 0, for its generators or for the
kernel layer L + 1 takes, and layer 1 stops one degree past the largest
given generator degree, as those span I.  The table is beta(I) itself, the
Koszul complex's, for a complete intersection, and else beta(in I) from
lead_betti, which bounds beta(I) entrywise (Peeva, Proc. AMS 132, 2004).
Layer 2's generators in a degree layer 1 never reached are counted at once;
their columns, the kernel of d_1 on the free columns, are built only when a
later image check or a read of FreeResolution.differentials needs them, as
composition_ok and is_minimal do and the Rao walk never does.  One exact
audit closes: beta(I) is at most the table's in every entry, and the
K-polynomial of the twists is hilbert_numerator().  One builder makes every
degree matrix, in integers over one denominator, and graded_kernel, that
builder then kernel_of_columns, is the one route to a kernel as elements.

Rao profiles read h^1(I_C(k)) as the third Ext module of S/I on the
dualized resolution (Rao, Invent. Math. 50, 1979): dim3 - rank4 - rank3 at
twist k, where dim3 is the piece of F_3^* there and rank3, rank4 are the
ranks of the transposed d_3 into it and d_4 out of it.  The twists are
walked downward, and the walk stops at the first twist where every summand
of F_3^* is generated in its piece and rank3 = dim3: one twist lower the
piece is S_1 times this one, onto which the transposed d_3, a module map,
is then onto, so h = 0 at every lower twist.  It fires only when F_4 = 0
(Auslander-Buchsbaum), as on the saturated ideal of a locally
Cohen-Macaulay curve, whose h^1 vanishes at low twists; otherwise the walk
covers the whole window.  A twist whose pieces exceed MAX_DUAL_PIECE is
refused before eliminating.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import lcm

from .errors import (
    CrossCheckFailureError,
    DegreeMismatchError,
    ResourceLimitError,
    WindowTooSmallError,
)
from .groebner import GradedIdeal, _divide, curve_invariants
from .hilbert import _ci_numerator, _series
from .linalg import Echelon, kernel_of_columns, sparse_first
from .polyring import (HomogeneousPolynomial, _divides, _from_integers, _lcm, _nonzero_fields,
                       graded_piece_dimension, mono_degree, packed_monomials, sum_of_products)
from .records import Record

# Largest graded piece of a dualized resolution module that a Rao profile
# may eliminate over; pieces grow like C(-k, 3) as the twist k falls.  The
# largest any shipped input reaches is 169 (CI's legendrian sample of
# degree 10 on the exact route, twist 8; the wedge queries build no dual
# piece, since the conormal certificate gives their profile), but for two
# probes whose walk never stops early: a line with an embedded point (1680
# at twist -14, refused at -15) and a truncated ideal, F_4 != 0 (560).  The
# legendrian sample of degree 15 on the exact route reaches 564.
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
    row, weights = list(row), list(weights)
    if len(row) != len(weights):
        raise DegreeMismatchError("row and weights have different lengths")
    for p, w in zip(row, weights):
        if p and p.degree != w:
            raise DegreeMismatchError(f"row entry of degree {p.degree} in a slot of weight {w}")
    twists = [-w for w in weights]
    size = sum(graded_piece_dimension(target_degree + b) for b in twists)
    if size > MAX_SYZYGY_COLUMNS:
        raise ResourceLimitError(f"graded_syzygies, degree {target_degree}: {size} columns "
                                 f"exceed the cap {MAX_SYZYGY_COLUMNS}")
    rows = graded_piece_dimension(target_degree)
    if rows > MAX_SYZYGY_ROWS:
        raise ResourceLimitError(f"graded_syzygies, degree {target_degree}: {rows} rows "
                                 f"exceed the cap {MAX_SYZYGY_ROWS}")
    zeros = [HomogeneousPolynomial.zero(target_degree - w) for w in weights]
    kernel = graded_kernel([{0: p} for p in row], _degree_basis(twists, target_degree),
                           _degree_basis([0], target_degree))
    return [tuple(element.get(slot, zero) for slot, zero in enumerate(zeros))
            for element in kernel]


def _degree_basis(twists, degree):
    """Index map for the degree-e piece of (+) S(b): list of (slot, packed
    monomial), each slot's monomials in descending degrevlex."""
    return [(slot, m) for slot, b in enumerate(twists) for m in packed_monomials(degree + b)]


def _degree_matrix(columns, basis, rows):
    """A degree piece of the map (+) S(b_j) -> (+) S(c_i) sending the j-th
    generator to columns[j], a map from target slot to polynomial: one
    sparse integer column per _degree_basis key of basis, over the indices
    of the keys rows, entries in other rows dropped, every polynomial
    cleared under one denominator, which keeps the kernel and the rank."""
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
    from slot to homogeneous polynomial; vec holds nonzero ints, den > 0."""
    slots = {}
    for ci, c in vec.items():
        slot, m = basis[ci]
        slots.setdefault(slot, {})[m] = c
    return {slot: _from_integers(mono_degree(next(iter(terms))), den, terms)
            for slot, terms in slots.items()}


def graded_kernel(columns, basis, rows):
    """The kernel of the degree piece _degree_matrix(columns, basis, rows),
    as elements over the keys of basis, in kernel_of_columns' canonical
    order: the one route to the kernel of a degree piece."""
    return [_element(z, basis, den)
            for den, z in kernel_of_columns(_degree_matrix(columns, basis, rows))]


# ---------------------------------------------------------------------------
# minimal free resolutions


# Most elements of the lcm lattice of in(I)'s minimal generators that
# lead_betti enumerates; r generators have at most 2^r - 1.  The largest
# lattice any shipped test, demo, gate or benchmark input reaches is 849 (28
# generators, four forms of a test); the gate's reach 18, the rao-queries
# pool's 27.  On a 2-vCPU x86_64 machine under Python 3.11, (z0, z1)^100
# (5151 elements) took 0.25 s and (z0, z1)^200 (20301) 1.8 s.
MAX_LEAD_LATTICE = 5_000
# Largest last degree of the Betti table that schedules a resolution,
# refused before any elimination; two forms of degrees a and b end at a + b.
MAX_RESOLUTION_DEGREE = 56
# Most columns of an image check or a deferred kernel of _resolve.  The
# largest any shipped test, demo, gate, CI step or benchmark input reaches is
# 1207 (a test's lead ideal, layer 2); CI's legendrian sample of degree 10
# on the exact route 660, and the wedge queries none, since the conormal
# certificate answers them.  The legendrian sample of degree 15 on the exact
# route reaches 2240 in its deferred kernel of degree 30: on a 2-vCPU x86_64
# machine under Python 3.11 its Rao profile, which defers it, took 4.0-4.8 s
# of CPU time, and building it 148 s.  z0^2, z0*z1, z1^n is refused from
# n = 19 on; n = 55 ran past 90 s before there was a cap.
MAX_RESOLUTION_COLUMNS = 2_500

# the faces of the simplex on a vertex set a, bit s set for each subset s of a,
# keyed by the guard bits _nonzero_fields gives the fields of a
_SIMPLEX = {sum(1 << 32 * v + 31 for v in range(4) if a >> v & 1):
            sum(1 << s for s in range(16) if not s & ~a) for a in range(16)}


@lru_cache(maxsize=None)
def _reduced_homology(faces: int) -> tuple:
    """dim H~_i, i = -1, 0, 1, 2, of the complex on the vertices 0..3 whose
    faces are the sets s with bit s of faces set: H~_-1 only for {empty},
    H~_0 the components less one, H~_2 only for the tetrahedron's boundary,
    and H~_1 from the Euler characteristic."""
    if faces == 1:
        return 1, 0, 0, 0
    parts = []  # the components, as vertex sets
    for s in range(1, 16):
        if faces >> s & 1 and s.bit_count() <= 2:  # a vertex or an edge joins its parts
            parts = [p for p in parts if not p & s] + [s | sum(p for p in parts if p & s)]
    h0, h2 = len(parts) - 1, int(faces & 0xE880 == 0x6880)  # 0x6880: the four triangles
    return 0, h0, h0 + h2 + sum((-1) ** s.bit_count() for s in range(16) if faces >> s & 1), h2


@lru_cache(maxsize=None)
def lead_betti(lead: tuple) -> tuple:
    """The graded Betti numbers of S/J, J minimally generated by the packed
    monomials lead: ascending ((L, e), beta_(L,e)) pairs, ((0, 0), 1) first.

    beta_(L,e) sums dim H~_(L-2) of the upper Koszul complex of b, the sets
    t with x^(b - t) in J, over the elements b of degree e of the lcm
    lattice (Miller and Sturmfels, GTM 227, Thm. 1.34): the union of the
    simplices {v : g_v < b_v} over the generators g dividing b.  A lattice
    past MAX_LEAD_LATTICE elements is refused with ResourceLimitError."""
    lattice = set()
    for g in lead:
        lattice |= {_lcm(g, b) for b in lattice}
        lattice.add(g)
        if len(lattice) > MAX_LEAD_LATTICE:
            raise ResourceLimitError(f"lead Betti table: {len(lattice)} lcm lattice elements "
                                     f"exceed the cap {MAX_LEAD_LATTICE}")
    table = {(0, 0): 1}
    for b in lattice:
        faces = 0
        for g in lead:
            if _divides(g, b):  # the simplex {v : g_v < b_v}
                faces |= _SIMPLEX[_nonzero_fields(b - g)]
        for layer, h in enumerate(_reduced_homology(faces), 1):
            if h:
                table[layer, mono_degree(b)] = table.get((layer, mono_degree(b)), 0) + h
    return tuple(sorted(table.items()))


class _Differentials(list):
    """FreeResolution.differentials as _resolve leaves it: reading layer i
    first builds its columns deferred in deferred[i] (see _build_deferred),
    None until then.  Copies and pickles carry both unbuilt."""

    __slots__ = ("deferred",)

    def __getitem__(self, i):
        layers = range(len(self))[i]
        for layer in layers if isinstance(i, slice) else (layers,):
            if layer in self.deferred:
                _build_deferred(self, list.__getitem__(self, layer), self.deferred[layer])
                del self.deferred[layer]
        return super().__getitem__(i)

    def __reduce__(self):
        return _Differentials, (list.copy(self),), (None, {"deferred": self.deferred})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self):
        return repr(list(self))


class FreeResolution(Record):
    """Minimal graded free resolution of S/I.

    twists[i] lists the signed twists b with F_i = (+) S(b); twists[0] = [0].
    differentials[i] holds the columns of d_{i+1} : F_{i+1} -> F_i, each a
    map from F_i slot index to a homogeneous polynomial.  bound is the last
    degree of the Betti table that scheduled it (see _resolve).  Reading
    differentials[1] builds layer 2's deferred kernels, which the Rao walk
    never builds and MAX_RESOLUTION_COLUMNS admits: on the exact route the
    legendrian sample of degree 15 defers 2240 columns, built in 148 s.
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
        """The alternating sum of the layer dimensions is H(e) in every
        degree e <= bound: exact, as both are K-polynomials of degree at
        most bound over (1 - t)^4."""
        return all(sum((-1) ** i * self.layer_dimension(i, e) for i in range(len(self.twists)))
                   == hilbert_function(e) for e in range(self.bound + 1))

    def _k_polynomial(self) -> dict:
        """sum_i (-1)^i sum_(b in twists[i]) t^(-b), a hilbert._series."""
        return _series((-b, (-1) ** i) for i, twists in enumerate(self.twists) for b in twists)

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
        return not any(poly and poly.degree == 0 for columns in self.differentials
                       for column in columns for poly in column.values())


def _capped(size, where):
    if size > MAX_RESOLUTION_COLUMNS:
        raise ResourceLimitError(f"{where}: {size} columns exceed the cap "
                                 f"{MAX_RESOLUTION_COLUMNS}")


def _build_deferred(differentials, columns, pending):
    """Layer 2's deferred columns into their slots of columns: for each
    (at, keys, rows, count, where) of pending, which is then emptied, the
    kernel of d_1, differentials[0], on keys over rows."""
    for at, keys, rows, count, where in pending:
        _capped(len(keys), where)
        found = graded_kernel(differentials[0], keys, rows)
        if len(found) != count:
            raise CrossCheckFailureError(f"{where}: kernel dimension audit failed")
        columns[at:at + count] = found
    pending.clear()


def _koszul_degrees(ideal: GradedIdeal):
    """The degrees of the given generators, largest first, when these are a
    regular sequence, exactly when hilbert_numerator() is prod(1 - t^d)
    over them: then HS(S/I) has a pole of order 4 - r at t = 1, so the r
    forms generate an ideal of height r, and conversely the Koszul complex
    of a regular sequence is exact; otherwise None."""
    degrees = sorted((g.degree for g in ideal.generators), reverse=True)
    if len(degrees) > 4 or ideal._hilbert_numerator() != _ci_numerator(degrees):
        return None
    return degrees


def minimal_free_resolution(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I, computed by _resolve on the
    first call and kept on the ideal; a call that raises keeps nothing.
    MAX_RESOLUTION_COLUMNS bounds this call, not a later read of
    differentials[1], which builds the deferred layer-2 kernels the Rao walk
    skips: 2240 columns in 148 s at legendrian d = 15 (see FreeResolution)."""
    if ideal._resolution is None:
        ideal._resolution = _resolve(ideal)
    return ideal._resolution


def _resolve(ideal: GradedIdeal) -> FreeResolution:
    """Minimal graded free resolution of S/I, scheduled by a Betti table
    (see the module docstring) whose last degree past MAX_RESOLUTION_DEGREE
    is refused with ResourceLimitError before any elimination, and a piece of
    more than MAX_RESOLUTION_COLUMNS columns before its rows or matrix.
    CrossCheckFailureError names the layer and degree of more generators
    than the table has, of determining rows that miss their dimension, or
    of a deferred kernel of layer 2 that misses its length when built;
    the first degree where the K-polynomial misses hilbert_numerator(); or
    the layer where a complete intersection's twists miss the Koszul ones.
    """
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    lead_gens = ideal._packed_lead()
    koszul = _koszul_degrees(ideal)
    if koszul is None:
        table = dict(lead_betti(lead_gens))
    else:  # beta(I) itself: the Koszul complex is the minimal resolution
        table = Counter((layer, sum(c)) for layer in range(len(koszul) + 1)
                        for c in combinations(koszul, layer))
    res = FreeResolution(twists=[[0]], differentials=_Differentials(),
                         bound=max(e for _, e in table))
    if res.bound > MAX_RESOLUTION_DEGREE:
        raise ResourceLimitError(f"Betti table degree {res.bound} exceeds the cap "
                                 f"{MAX_RESOLUTION_DEGREE}")
    res.differentials.deferred = {}
    elements = ideal._basis_elements()
    maxdeg = ideal.max_generator_degree()

    def lead_rows(e):
        """The keys (0, m) of the monomials m of in(I)_e, descending."""
        return [(0, m) for m in sorted({g + q for g in lead_gens
                                        for q in packed_monomials(e - mono_degree(g))})]

    def checked(rows, dim, where):
        """rows, once their count is found to be dim, from the Hilbert function."""
        if len(rows) != dim:
            raise CrossCheckFailureError(
                f"{where}: {len(rows)} determining rows against dimension {dim}")
        return rows

    below = {}  # degree -> kernel of d_(layer-1) there, from the image checks of layer - 1
    for layer in range(1, max(L for L, _ in table) + 1):
        visits = sorted({e for (L, e) in table if L in (layer, layer + 1)})
        if layer == 1:  # the given generators span I
            visits = [e for e in visits if e <= maxdeg + 1]
        # generators of F_layer, as columns of d_layer over F_{layer-1}
        twists, columns, pending = [], [], []
        source = res.twists[layer - 1]
        kernels = {}
        for e in visits:
            where = f"layer {layer}, degree {e}"
            _capped(sum(graded_piece_dimension(e + b) for b in twists), where)
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
            # the image check, whose kernel is also that of d_layer here
            ech = Echelon()
            images, kernel, new = [], [], range(len(rows))  # new: each row's index in images
            if columns:  # with no generators yet the image is zero
                _build_deferred(res.differentials, columns, pending)
                images = _degree_matrix(columns, _degree_basis(twists, e), rows)
                if layer > 1:  # rows of F_(layer-1), not monomials of S
                    new = sparse_first(images, len(rows))
                kernel = kernel_of_columns(images, ech)
            kernels[e] = kernel
            missing = target - (len(images) - len(kernel))
            if not missing:
                continue
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
            else:  # layer 2 past layer 1's stop; for layers above 2 the table puts e in below
                # d_1 maps onto I_e, of dimension the rank of d_1
                kernel_rows = checked(lead_rows(e), res.layer_dimension(1, e) - target, where)
                pending.append((len(columns), [basis[i] for i in free], kernel_rows, missing,
                                where))
                found = [None] * missing
            if missing > table.get((layer, e), 0):
                raise CrossCheckFailureError(f"{where}: {missing} generators, more than "
                                             f"the Betti table's {table.get((layer, e), 0)}")
            twists += [-e] * len(found)
            columns += found
        below = kernels
        if not twists:
            break
        res.twists.append(twists)
        res.differentials.append(columns)
        if pending:
            res.differentials.deferred[layer - 1] = pending

    kpoly, numerator = res._k_polynomial(), ideal._hilbert_numerator()
    wrong = _series([*kpoly.items(), *((e, -c) for e, c in numerator.items())])
    if wrong:
        e = next(iter(wrong))  # the lowest
        raise CrossCheckFailureError(f"all layers, degree {e}: K-polynomial coefficient "
                                     f"{kpoly.get(e, 0)} against {numerator.get(e, 0)} in the "
                                     f"Hilbert numerator")
    if koszul is not None:  # a second route to the Betti table: the Koszul complex
        for layer in range(1, max(len(res.twists), len(koszul) + 1)):
            got = sorted(res.twists[layer]) if layer < len(res.twists) else []
            want = sorted(-sum(c) for c in combinations(koszul, layer))
            if got != want:
                raise CrossCheckFailureError(f"layer {layer}: twists {got} differ from the "
                                             f"Koszul twists {want} of the complete "
                                             f"intersection of degrees {koszul}")
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
    return -ideal.max_generator_degree(), 3 + sum(g.degree for g in ideal.generators)


def rao_module_dimensions(ideal: GradedIdeal, window=None) -> RaoProfile:
    """h^1 of the ideal sheaf of the curve, twist by twist, over the window,
    walked down from min(hi, max(-b - 4)) over the twists b of F_3 to the
    proven stop (see the module docstring); it must vanish at both ends.
    It is 1 at c_a + c_b - 2 and 0 elsewhere, with no basis or resolution,
    for a wedge ideal certified by the conormal bound (folcurves.section)."""
    if ideal._conormal is None:
        ideal._basis_elements()  # the resolution needs the basis: no section is cut first
    curve_invariants(ideal)  # refuses a non-curve, after the certificate, if any
    if window is None:
        window = default_rao_window(ideal)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")

    profile = {}
    if ideal._conormal is not None:  # certified by the query above
        if lo <= (twist := sum(ideal._conormal) - 2) <= hi:
            profile[twist] = 1
    elif (res := minimal_free_resolution(ideal)).length() >= 3:
        t2, t3 = res.twists[2], res.twists[3]
        t4 = res.twists[4] if res.length() >= 4 else []
        d3 = res.differentials[2]
        d4 = res.differentials[3] if res.length() >= 4 else []
        generated = min(-b - 4 for b in t3)  # at or below it F_3^* is generated in its piece
        for k in range(min(hi, max(-b - 4 for b in t3)), lo - 1, -1):
            dim2, dim3, dim4 = (sum(graded_piece_dimension(-b - 4 - k) for b in t)
                                for t in (t2, t3, t4))
            if max(dim2, dim3, dim4) > MAX_DUAL_PIECE:
                raise ResourceLimitError(f"Rao twist {k}: a dual-map piece of dimension "
                                         f"{max(dim2, dim3, dim4)} exceeds the cap "
                                         f"{MAX_DUAL_PIECE}")
            rank4 = _dual_map_rank(t3, t4, d4, k) if t4 else 0
            rank3 = _dual_map_rank(t2, t3, d3, k)
            h = dim3 - rank4 - rank3
            if h < 0:
                raise CrossCheckFailureError(f"Rao twist {k}: negative cohomology dimension {h}")
            if h:
                profile[k] = h
            elif k <= generated and rank3 == dim3:
                break  # onto here, so onto at every lower twist: h = 0 there
    if profile.get(lo) or profile.get(hi):
        raise WindowTooSmallError(f"nonzero value at a window endpoint of [{lo}, {hi}]")
    profile = dict(sorted(profile.items()))
    return RaoProfile(profile=profile, total=sum(profile.values()), window=(lo, hi))


def _dual_map_rank(twists_dom, twists_cod, columns, k: int) -> int:
    """Rank of the dual of d : F_cod -> F_dom in dual degree -k: the map of
    free modules with slot twists -b - 4 - k in degree 0 sending slot j of
    F_dom to the j-th row of d, eliminated until the rank reaches the
    dimension of the codomain piece, a ceiling no vector can raise."""
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
