"""Numeric sheaf cohomology on P^3.

Euler characteristics come from the Riemann-Roch polynomial for ranks 1 and
2, derived once from ch * td and validated against three anchor values in
the test suite.  Line-bundle and twisted-cotangent cohomology follow the
closed Bott-type formulas; instanton tables are assembled from the
vanishing package (stability, the instanton condition, regularity, Serre
duality) plus the Euler characteristic, so every row is chi-consistent by
construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import (
    InvalidProfileError,
    UnsupportedFormIndexError,
    UnsupportedRankError,
)
from .records import FrozenRecord, Record

CLOSED_FORM = "closed_form"
CHI_FORCED = "chi_forced"
TABULATED = "tabulated"


class ChernTriple(FrozenRecord):
    """Chern numbers against powers of the hyperplane class."""

    __slots__ = ("c1", "c2", "c3")
    _defaults = {"c3": 0}

    def twist(self, t: int, rank: int) -> "ChernTriple":
        """Chern triple of E(t) for rank 1 or 2."""
        if rank == 1:
            return ChernTriple(self.c1 + t, 0, 0)
        if rank == 2:
            return ChernTriple(self.c1 + 2 * t, self.c2 + t * self.c1 + t * t, self.c3)
        raise UnsupportedRankError(f"twist rule implemented for rank <= 2, got {rank}")


class SheafSymbol(FrozenRecord):
    """Numeric avatar of a sheaf on P^3: rank, Chern triple, kind tag."""

    __slots__ = ("rank", "chern", "kind", "data")
    _defaults = {"kind": "generic", "data": ()}

    @classmethod
    def line_bundle(cls, a: int) -> "SheafSymbol":
        return cls(1, ChernTriple(a, 0, 0), "line_sum", (a,))

    @classmethod
    def line_sum(cls, twists) -> "SheafSymbol":
        twists = tuple(twists)
        _, c1, c2, c3 = chern_series(twists)
        return cls(len(twists), ChernTriple(c1, c2, c3), "line_sum", twists)

    @classmethod
    def cotangent(cls) -> "SheafSymbol":
        return cls(3, ChernTriple(-4, 6, -4), "cotangent")

    @classmethod
    def null_correlation(cls) -> "SheafSymbol":
        return cls(2, ChernTriple(0, 1, 0), "null_correlation")

    @classmethod
    def instanton(cls, charge: int, natural: bool = False, h0_e1=None) -> "SheafSymbol":
        if charge < 1:
            raise InvalidProfileError("instanton charge must be at least 1")
        return cls(2, ChernTriple(0, charge, 0), "instanton", (charge, natural, h0_e1))


def chern_series(twists) -> list:
    """[1, c1, c2, c3]: the total Chern class of (+) O(a) over the twists,
    truncated at degree 3, in ints."""
    coeffs = [1, 0, 0, 0]
    for a in twists:
        for k in (3, 2, 1):
            coeffs[k] += a * coeffs[k - 1]
    return coeffs


def euler_characteristic(symbol: SheafSymbol, twist: int = 0) -> int:
    """Exact chi(E(twist)) for rank 1 or 2 symbols."""
    c = symbol.chern.twist(twist, symbol.rank)
    if symbol.rank == 1:
        return _chi_line(c.c1)
    if symbol.rank == 2:
        return _chi_rank2(c.c1, c.c2, c.c3)
    raise UnsupportedRankError(f"rank {symbol.rank} not supported")


def _chi_line(a: int) -> int:
    return (a + 1) * (a + 2) * (a + 3) // 6


def _chi_rank2(c1: int, c2: int, c3: int) -> int:
    value = (
        Fraction(c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6)
        + (c1 ** 2 - 2 * c2)
        + Fraction(11 * c1, 6)
        + 2
    )
    if value.denominator != 1:
        raise InvalidProfileError(f"non-integral Euler characteristic {value}")
    return int(value)


def hrr_polynomial(symbol: SheafSymbol):
    """Coefficients (in t) of chi(E(t)), lowest degree first.

    A second route to euler_characteristic; the two must agree identically.
    """
    pts = [euler_characteristic(symbol, t) for t in range(4)]
    # Newton forward differences on four points give the cubic exactly.
    coeffs = [Fraction(0)] * 4
    diffs = [Fraction(p) for p in pts]
    basis = [Fraction(1)]
    for k in range(4):
        lead = diffs[0]
        for i, b in enumerate(basis):
            coeffs[i] += lead * b / factorial(k)
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        # multiply basis by (t - k)
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i] -= b * k
            nxt[i + 1] += b
        basis = nxt
    return coeffs


class CohomologyTable(Record):
    """Rows of (h0, h1, h2, h3) per twist with per-entry provenance tags."""

    __slots__ = ("rows", "provenance")
    _defaults = {"rows": dict, "provenance": dict}

    def set_row(self, twist: int, values, tags):
        self.rows[twist] = tuple(int(v) for v in values)
        self.provenance[twist] = tuple(tags)

    def row(self, twist: int):
        return self.rows[twist]

    def chi_consistent(self, chi_of_twist) -> bool:
        for k, (h0, h1, h2, h3) in self.rows.items():
            if h0 - h1 + h2 - h3 != chi_of_twist(k):
                return False
        return True

    def to_json(self):
        return {
            "twists": {str(k): list(v) for k, v in sorted(self.rows.items())},
            "provenance": {str(k): list(v) for k, v in sorted(self.provenance.items())},
        }


def line_bundle_cohomology(a: int):
    """(h0, h1, h2, h3) of O(a)."""
    h0 = comb(a + 3, 3) if a >= 0 else 0
    h3 = comb(-a - 1, 3) if a <= -4 else 0
    return (h0, 0, 0, h3)


def cotangent_cohomology(p: int, twist: int):
    """(h0, h1, h2, h3) of the twisted cotangent sheaf of 1-forms."""
    if p != 1:
        raise UnsupportedFormIndexError("only 1-forms are tabulated")
    k = twist
    h0 = comb(k + 2, k) * comb(k - 1, 1) if k > 1 else 0
    h1 = 1 if k == 0 else 0
    h3 = comb(1 - k, -k) * comb(-k - 1, 2) if k <= -3 else 0
    return (h0, h1, 0, h3)


def null_correlation_h0(t: int) -> int:
    """h0 of the twisted null correlation bundle: 2*C(t+3,3) - (t+2) for t >= 0.

    For t < 0 stability forces zero, returned through a separate path.
    """
    if t < 0:
        return 0
    return 2 * comb(t + 3, 3) - (t + 2)


def _instanton_chi(n: int, k: int) -> int:
    return euler_characteristic(SheafSymbol.instanton(n), k)


def _instanton_h0_e1(n: int, h0_e1) -> int:
    forced = {1: 5, 2: 2}
    if n in forced:
        if h0_e1 is not None and h0_e1 != forced[n]:
            raise InvalidProfileError(
                f"h0(E(1)) is {forced[n]} for charge {n}, got {h0_e1}"
            )
        return forced[n]
    if n == 3:
        if h0_e1 is None or h0_e1 not in (0, 1, 2):
            raise InvalidProfileError("charge 3 requires h0(E(1)) in {0, 1, 2}")
        return h0_e1
    if n == 4:
        if h0_e1 not in (None, 0):
            raise InvalidProfileError("charge 4 is tabulated with natural cohomology only")
        return 0
    raise InvalidProfileError(f"charge {n} is not tabulated")


def instanton_h1(n: int, h0_e1=None) -> dict:
    """Nonzero h1(E(k)) values for a charge-n instanton bundle.

    Everything follows from h0 data, the instanton condition, n-regularity
    and the Euler characteristic; h1 vanishes outside -1 <= k <= n-2 (and
    outside -1..1 for the natural charge-4 profile).
    """
    h0_e1 = _instanton_h0_e1(n, h0_e1)
    out = {}
    top = min(n - 2, 1) if n == 4 else n - 2
    for k in range(-1, max(top, -1) + 1):
        h0 = 0 if k <= 0 else h0_e1
        h1 = h0 - _instanton_chi(n, k)
        if h1 < 0:
            raise InvalidProfileError("negative h1 from the chi bookkeeping")
        if h1:
            out[k] = h1
    return out


def instanton_cohomology(n: int, h0_e1=None, twists=None) -> CohomologyTable:
    """Cohomology table of a charge-n instanton bundle over a twist range."""
    h0_e1 = _instanton_h0_e1(n, h0_e1)
    h1_map = instanton_h1(n, h0_e1)
    if twists is None:
        twists = range(-n - 5, n + 3)

    def h0_of(k):
        if k <= 0:
            return 0, CLOSED_FORM
        if k == 1:
            return h0_e1, TABULATED
        h1 = h1_map.get(k, 0)
        return _instanton_chi(n, k) + h1, CHI_FORCED

    def h1_of(k):
        if k in h1_map:
            return h1_map[k], CHI_FORCED
        return 0, CLOSED_FORM

    table = CohomologyTable()
    for k in twists:
        h0, t0 = h0_of(k)
        h1, t1 = h1_of(k)
        h2, _ = h1_of(-4 - k)
        h3, _ = h0_of(-4 - k)
        table.set_row(k, (h0, h1, h2, h3), (t0, t1, CLOSED_FORM, CLOSED_FORM))
        if h0 - h1 + h2 - h3 != _instanton_chi(n, k):
            raise InvalidProfileError(f"chi mismatch at twist {k}")
    return table


def serre_dual_twist(d: int, k: int) -> int:
    """Twist pairing h1 and h2 of a conormal sheaf of a degree-d foliation."""
    return d - k - 1


def hom_lower_bound(c2: int) -> int:
    """Lower bound 40 - 11*c2 for hom(E(-3), cotangent sheaf), instanton E."""
    if c2 < 1:
        raise InvalidProfileError("charge must be at least 1")
    return 40 - 11 * c2
