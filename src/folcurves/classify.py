"""Invariant formulas and the classification decision procedure for
foliations by curves on P^3 of low degree.

Discrepancy flags are first-class data: wherever the tabulated statement of
a result disagrees with the value recomputed from the invariant formulas,
both numbers are reported side by side and nothing is silently reconciled.
"""

from __future__ import annotations

from math import comb

from .errors import (
    CrossCheckFailureError,
    DegreeTooSmallError,
    ImpossibleError,
    InconsistentTripleError,
    NonIntegralGenusError,
    OutOfBoundsError,
)
from .records import FrozenRecord, Record
from .sheafcoh import _instanton_h0_e1, instanton_h1


class FoliationInvariants(FrozenRecord):
    """Numeric invariants of a foliation by curves of degree d: the Chern
    numbers c2N, c1N of its conormal sheaf, the degree degC and arithmetic
    genus paC of its singular curve, c3, and whether the conormal sheaf is
    locally free."""

    __slots__ = ("d", "c2N", "c1N", "degC", "paC", "c3", "locally_free")

    def identity_residual(self) -> int:
        """Chern-number closure; zero exactly when c3 accounting matches."""
        return (
            self.d ** 3 + self.d ** 2 + self.d + 1
            - 3 * self.degC * (self.d - 1)
            - 2 * (1 - self.paC)
            - self.c3
        )


class DiscrepancyFlag(Record):
    """A tabulated value that disagrees with the formula-derived one."""

    __slots__ = ("claim", "computed", "stated", "location")

    def to_json(self):
        return {
            "claim": self.claim,
            "computed": self.computed,
            "stated": self.stated,
            "location": self.location,
        }


class ClassificationReport(Record):
    """Structured verdict for a (degree, c2) classification query."""

    __slots__ = ("verdict", "degC", "paC", "components", "dim_moduli", "h0_OC", "charge",
                 "flags")
    _defaults = {"components": None, "dim_moduli": None, "h0_OC": None, "charge": None,
                 "flags": list}

    def to_json(self):
        return {
            "verdict": self.verdict,
            "curve": {"degree": self.degC, "genus": self.paC},
            "components": self.components,
            "dim_moduli": self.dim_moduli,
            "h0_OC": self.h0_OC,
            "charge": self.charge,
            "flags": [f.to_json() for f in self.flags],
        }


def invariants_from_c2(d: int, c2N: int, locally_free: bool = True) -> FoliationInvariants:
    """Singular-curve degree and genus from the foliation degree and c2."""
    if d < 1:
        raise OutOfBoundsError("foliation degree must be at least 1")
    upper = d * d + 2 * d + 1 if locally_free else d * d + 2 * d + 3
    if not d + 2 <= c2N <= upper:
        raise OutOfBoundsError(
            f"c2 = {c2N} outside the admissible range [{d + 2}, {upper}] for degree {d}"
        )
    if (3 * (d - 1) * c2N) % 2 != 0:
        raise NonIntegralGenusError(
            f"3(d-1)c2 = {3 * (d - 1) * c2N} is odd, genus is not integral"
        )
    degC = d * d + 2 * d + 3 - c2N
    paC = d ** 3 + d ** 2 + d - 3 * (d - 1) * c2N // 2 - 4
    inv = FoliationInvariants(
        d=d, c2N=c2N, c1N=-3 - d, degC=degC, paC=paC,
        c3=0, locally_free=locally_free,
    )
    if locally_free and inv.identity_residual() != 0:
        raise CrossCheckFailureError("Chern-number closure failed")
    return inv


def generic_invariants(d: int):
    """(c2, c3) of a foliation with only isolated singularities."""
    return (d * d + 2 * d + 3, d ** 3 + d ** 2 + d + 1)


def isolated_count(d: int, degC: int, chiOC: int) -> int:
    """Number of isolated singular points given the curve part's invariants."""
    count = d ** 3 + d ** 2 + d + 1 - 3 * degC * (d - 1) - 2 * chiOC
    if count < 0:
        raise InconsistentTripleError(
            f"negative isolated-singularity count {count}"
        )
    return count


def connected_components(h2_value: int, d: int) -> int:
    """Component count of a reduced singular curve from h2 of the twisted conormal."""
    if d < 2:
        raise DegreeTooSmallError("the connectedness criterion needs degree >= 2")
    if h2_value < 0:
        raise OutOfBoundsError("cohomology dimensions are non-negative")
    return h2_value + 1


def sections_of_singular_scheme(c2E: int, h0E1: int) -> int:
    """h0 of the structure sheaf of the singular scheme, degree-3 case."""
    if not 1 <= c2E <= 5:
        raise OutOfBoundsError("normalized c2 must lie in 1..5")
    return 3 * c2E - 7 + h0E1


def legendrian_moduli_dim(d: int) -> int:
    """Moduli dimension of degree-d legendrian foliations."""
    if d < 1:
        raise OutOfBoundsError("degree must be at least 1")
    if d == 1:
        return 8
    return d * comb(d + 3, 2) - comb(d + 2, 3) + 4


def nc_moduli_dim(k: int):
    """(stated, derived, flag) moduli dimension for twisted null-correlation
    conormal sheaves of degree 2k+1.

    The stated closed form and the dimension rebuilt from the deformation
    count (5 + hom - 1) differ by exactly 1 for every k; the flag records it.
    """
    if k < 1:
        raise OutOfBoundsError("k must be at least 1")
    stated = 8 * comb(k + 4, 3) - 2 * comb(k + 5, 3) - 3 * k - 3
    hom = 8 * comb(k + 4, 3) - 2 * comb(k + 5, 3) - 3 * k - 8
    derived = 5 + hom - 1
    return stated, derived, stated != derived


def nc_curve_invariants(k: int):
    """(degree, genus) of the singular curve of a twisted null-correlation
    foliation of degree 2k+1, cross-checked against the c2 route."""
    if k < 1:
        raise OutOfBoundsError("k must be at least 1")
    deg = (3 * k + 1) * (k + 1)
    genus = 5 * k ** 3 + 4 * k ** 2 - 3 * k - 1
    inv = invariants_from_c2(2 * k + 1, 1 + (k + 2) ** 2, locally_free=True)
    if (inv.degC, inv.paC) != (deg, genus):
        raise CrossCheckFailureError(
            f"null-correlation route ({deg}, {genus}) disagrees with "
            f"c2 route ({inv.degC}, {inv.paC})"
        )
    return deg, genus


_CI_STATED_GENERA = {(0, 2): 5, (1, 1): 3}


def ci_foliation_invariants(d1: int, d2: int):
    """(degree, genus, flags) for global complete intersection foliations."""
    if d1 < 0 or d2 < 0:
        raise OutOfBoundsError("twist data must be non-negative")
    s, p = d1 + d2, d1 * d2
    deg = s * s - p + 2 * (s + 1)
    genus_num = 2 * ((s + 1) ** 3 - 2 * (s + 1) ** 2) - s * (3 * p - 2)
    if genus_num % 2 != 0:
        raise NonIntegralGenusError("genus formula is not integral")
    genus = genus_num // 2
    inv = invariants_from_c2(s + 1, (2 + d1) * (2 + d2), locally_free=True)
    if (inv.degC, inv.paC) != (deg, genus):
        raise CrossCheckFailureError(
            f"complete-intersection route ({deg}, {genus}) disagrees with "
            f"c2 route ({inv.degC}, {inv.paC})"
        )
    flags = []
    key = (min(d1, d2), max(d1, d2))
    if key in _CI_STATED_GENERA:
        stated = _CI_STATED_GENERA[key]
        if stated != genus:
            flags.append(DiscrepancyFlag(
                claim=(
                    f"degree-3 split conormal ({-2 - key[0]}, {-2 - key[1]}): "
                    f"tabulated genus {stated}, formula genus {genus}"
                ),
                computed=genus,
                stated=stated,
                location=f"deg3-split-genus-{key[0]}{key[1]}",
            ))
    return deg, genus, flags


def rao_bounds(dimM: int, h1N_zero: bool):
    """(lower, upper, exact) bounds for the Rao dimension from dim M."""
    if dimM < 0:
        raise OutOfBoundsError("module dimension is non-negative")
    exact = dimM + 1 if h1N_zero else None
    return dimM, dimM + 1, exact


def split_criterion(rao_dim: int) -> str:
    """Conormal type from the Rao-module dimension."""
    if rao_dim < 1:
        raise OutOfBoundsError("the Rao module of a foliation is nontrivial")
    if rao_dim == 1:
        return "splits"
    if rao_dim == 2:
        return "twisted_null_correlation"
    if rao_dim == 3:
        return "impossible"
    return "undetermined"


def classify_low_degree(d: int, c2N: int, reduced_singular_scheme: bool = False) -> ClassificationReport:
    """Full decision procedure for foliation degrees 1, 2 and 3."""
    if d not in (1, 2, 3):
        raise OutOfBoundsError("classification covers degrees 1, 2 and 3")
    lower, upper = d + 2, d * d + 2 * d + 1
    if not lower <= c2N <= upper:
        raise OutOfBoundsError(
            f"c2 = {c2N} outside [{lower}, {upper}] for a locally free conormal"
        )

    if d == 1:
        if c2N != 4:
            raise ImpossibleError(
                "degree-1 foliations with curve singular scheme have split "
                "conormal (-2, -2), so c2 must be 4"
            )
        inv = invariants_from_c2(1, 4)
        return ClassificationReport(
            verdict={"type": "split", "twists": [-2, -2]},
            degC=inv.degC, paC=inv.paC, components=2, dim_moduli=None,
            h0_OC=2, charge=None, flags=[],
        )

    if d == 2:
        if c2N % 2 != 0:
            raise ImpossibleError(
                f"degree-2 foliations need even c2 (genus formula), got {c2N}"
            )
        if c2N == 4:
            raise ImpossibleError(
                "c2 = 4 forces a section of the normalized conormal with "
                "negative-degree zero scheme; no such foliation exists"
            )
        if c2N == 8:
            raise ImpossibleError(
                "c2 = 8 would make the normalized conormal a stable (-1, 2) "
                "bundle, whose degree-2 syzygies drop rank on two planes; "
                "no such foliation exists"
            )
        inv = invariants_from_c2(2, 6)
        return ClassificationReport(
            verdict={"type": "split", "twists": [-2, -3]},
            degC=inv.degC, paC=inv.paC, components=1, dim_moduli=None,
            h0_OC=1, charge=None, flags=[],
        )

    # degree 3
    if c2N in (5, 6, 7):
        raise ImpossibleError(
            f"c2 = {c2N}: no split type with vanishing low twists exists and "
            "stability forces c2 >= 10"
        )
    if c2N == 16:
        raise ImpossibleError(
            "c2 = 16: the singular scheme would be a multiplicity-2 line of "
            "genus -13, contradicting 13-regularity of the normalized bundle"
        )
    if c2N == 15:
        raise ImpossibleError(
            "c2 = 15: the triple-line structures forced here give h1 of the "
            "curve ideal sheaf equal to 10, contradicting the monad bound"
        )
    if c2N in (8, 9):
        twists = [-2, -4] if c2N == 8 else [-3, -3]
        inv = invariants_from_c2(3, c2N)
        d1, d2 = -2 - twists[0], -2 - twists[1]
        _, _, flags = ci_foliation_invariants(min(d1, d2), max(d1, d2))
        return ClassificationReport(
            verdict={"type": "split", "twists": twists},
            degC=inv.degC, paC=inv.paC, components=1,
            dim_moduli=None, h0_OC=1, charge=None, flags=flags,
        )

    # stable range: c2N in 10..14, normalized charge n = c2N - 9
    n = c2N - 9
    inv = invariants_from_c2(3, c2N)
    constraints = []
    if reduced_singular_scheme:
        if n == 5:
            raise ImpossibleError(
                "c2 = 14 with reduced singular scheme: a degree-4 reduced "
                "curve cannot have 8 or more connected components"
            )
        if n == 4:
            constraints.append("charge-4 instanton with natural cohomology required")
            h0_options = [0]
        elif n == 3:
            constraints.append("h0(E(1)) <= 1 (special profiles excluded)")
            h0_options = [0, 1]
        else:
            h0_options = [None]
        dims = []
        h0s = []
        comps = []
        for h in h0_options:
            h1 = instanton_h1(n, h)
            dims.append(sum(h1.values()))
            h0s.append(sections_of_singular_scheme(n, _instanton_h0_e1(n, h)))
            comps.append(h1.get(1, 0) + 1)
        def collapse(xs):
            return xs[0] if len(set(xs)) == 1 else sorted(set(xs))
        return ClassificationReport(
            verdict={"type": "instanton", "charge": n, "constraints": constraints},
            degC=inv.degC, paC=inv.paC,
            components=collapse(comps), dim_moduli=collapse(dims),
            h0_OC=collapse(h0s), charge=n, flags=[],
        )
    constraints.append("stable normalized conormal; instanton property needs a reduced singular scheme")
    if n == 4:
        constraints.append("t'Hooft charge-4 profile excluded")
    if n == 5:
        constraints.append("natural-cohomology and t'Hooft charge-5 profiles excluded")
    return ClassificationReport(
        verdict={"type": "instanton", "charge": n, "constraints": constraints},
        degC=inv.degC, paC=inv.paC, components=None, dim_moduli=None,
        h0_OC=None, charge=n, flags=[],
    )
