"""Exact sparse linear algebra by fraction-free elimination over the integers.

Vectors are dicts mapping coordinate index to a nonzero int; a caller with
rational entries clears their denominators first (a degree matrix is built
over one), which keeps every rank and kernel.  The elimination only ever
touches integers, in the integer-preserving style of Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968), and kernel vectors come out as integers over one positive
denominator.  Echelon is the single engine behind every rank and kernel
computation in the package.
"""

from __future__ import annotations

from math import gcd

SparseVec = dict


def _primitive(vec: SparseVec) -> SparseVec:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {c: x // g for c, x in vec.items()}


class Echelon:
    """Incremental echelon form of sparse vectors, kept as integer rows.

    Each stored row is primitive and keyed by its leftmost coordinate, its
    pivot.  Rows are never back-substituted: a row only involves coordinates
    that were not pivots when it was stored, so reducing against the rows in
    insertion order is complete after one pass.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}  # pivot index -> primitive integer row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: SparseVec) -> SparseVec:
        """Clear the integer vector v at every pivot, in place, and return it."""
        for p, row in self.rows.items():
            f = v.get(p)
            if not f:
                continue
            a = row[p]
            g = gcd(a, f)
            # v <- (a/g) v - (f/g) row, which stays integral and clears v[p]
            s, t = a // g, f // g
            if s != 1:
                for c in v:
                    v[c] *= s
            # kept inline: elimination's hot loop, clearing v in place pivot by pivot
            for c, x in row.items():
                y = v.get(c, 0) - t * x
                if y:
                    v[c] = y
                else:
                    del v[c]
        return v

    def insert(self, vec: SparseVec):
        """Reduce vec and, if independent, add it; return the new pivot or None."""
        v = self._reduce(dict(vec))
        if not v:
            return None
        p = min(v)
        self.rows[p] = _primitive(v)
        return p


def sparse_first(columns, nrows):
    """Renumber the rows 0..nrows-1 of the sparse columns, in place, by
    ascending nonzero count, ties by index, and return the list of each
    row's new position.  Eliminating the sparsest rows first keeps fill-in
    low (Markowitz, Management Science 3, 1957), and the kernel stays the
    same."""
    count = [0] * nrows
    for vec in columns:
        for i in vec:
            count[i] += 1
    new = [0] * nrows
    for k, i in enumerate(sorted(range(nrows), key=count.__getitem__)):
        new[i] = k
    columns[:] = [{new[i]: x for i, x in vec.items()} for vec in columns]
    return new


def kernel_of_columns(columns, ech=None):
    """Right-kernel basis of the matrix whose j-th column is columns[j].

    Columns are sparse integer vectors over row indices.  Kernel vectors
    are sparse over column indices, one per dependent column in column
    order; the one for column j is the unique kernel vector supported on j
    and the earlier independent columns, scaled so that its first entry is
    1.  Each comes as a pair (den, ints): the vector is ints / den, with
    integer entries ints and den > 0, in one canonical form: primitive (the
    gcd of den and all entries is 1) with its entries in ascending column
    order.  So the output depends on the columns alone, not on the order of
    their rows, which steers only the elimination path.  Given an empty
    Echelon ech, the elimination runs in it, whose pivots are then those of
    an Echelon fed the independent columns in order; read only its pivots,
    as its rows also record the columns each combines.
    """
    shift = 1 + max((max(col) for col in columns if col), default=-1)
    ech = Echelon() if ech is None else ech
    kernel = []
    for j, col in enumerate(columns):
        # column j, augmented by a unit coordinate past every row index that
        # records which columns the reduced vector combines
        v = dict(col)
        v[shift + j] = 1
        v = ech._reduce(v)
        p = min(v)
        if p < shift:
            ech.rows[p] = _primitive(v)
        else:
            # p is the first column the vector uses; its entry becomes den > 0
            g = gcd(*v.values())
            if v[p] < 0:
                g = -g
            kernel.append((v[p] // g, {c - shift: v[c] // g for c in sorted(v)}))
    return kernel
