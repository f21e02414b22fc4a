"""Groebner bases, Hilbert data, graded syzygies, free resolutions and the
first-cohomology dimensions of curve ideal sheaves.

Everything is exact.  The monomial order is fixed to degrevlex.  Hilbert
series of lead-term ideals drive degree and genus; the per-twist first
cohomology of a curve's ideal sheaf comes from graded duality applied to
the dualized tail of the resolution, so no saturation is ever computed.

Division and Buchberger run fraction-free over Z.  Basis elements are kept
primitive and S-polynomials are formed with integer cofactors; division is
integer pseudo-division, the next term taken from a min-heap of reversed
exponent tuples (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Only the result
goes back to Fractions: normal_form divides its integer remainder by the
accumulated multiplier, and buchberger returns the monic reduced basis,
made in one pass from the minimal basis by _reduced_basis.

Most callers never need that reduced basis.  GradedIdeal keeps the
unreduced integer elements Buchberger ends with; the lead ideal, every
Hilbert quantity, the regularity bound and the resolution (whose first
layer divides by the elements, the normal form being unique) read only
those.  Only groebner_basis, contains and equals build the reduced basis.

Buchberger also uses Hilbert data (Traverso, "Hilbert functions and the
Buchberger algorithm", J. Symbolic Comput. 22, 1996).  When at most four
nonzero forms of degrees d_i generate I, dim (S/I)_d is at least H_CI(d),
the coefficient of t^d in prod(1 - t^d_i) / (1 - t)^4: dim I_d is the rank
of the map from the sum of the S_(d-d_i) to S_d multiplying by the
generators, a rank can only drop under specialization, and for generic
forms, four or fewer being a regular sequence, the rank gives exactly
H_CI.  Pairs are popped in lcm-degree order while the degree-d monomials no
current lead divides are kept, advanced one degree at a time; once they
number H_CI(d), the leads span in(I)_d and every remaining pair of degree d
reduces to zero, so it is skipped without being formed.  With five or more
generators the bound would be Froeberg's conjecture, and no pair is skipped
this way.

Resolutions are built layer by layer and degree by degree.  Exactness and
the Hilbert function of S/I give the dimension of the kernel each layer
must cover in each degree; candidates (normal forms in layer 1, kernels of
the previous differential above it) are computed only where the multiples
of the generators found so far fall short of it.  Generator twists in layer
L never exceed reg(S/I) + L, which is bounded through the lead-term
quotient; one degree past that bound is a safety margin.  Each target is
met by both the kernel length and the rank, and a dimension audit over all
degrees up to the truncation bound cross-checks the result.  Rao profiles
eliminate over the same degree matrices, taken on transposed differentials,
and refuse a twist whose pieces exceed MAX_DUAL_PIECE before eliminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd

from .errors import (
    DegreeMismatchError,
    NotACurveError,
    ResourceLimitError,
    WindowTooSmallError,
)
from .linalg import Echelon, kernel_of_columns
from .polyring import (
    HomogeneousPolynomial,
    NVARS,
    ONE_MONO,
    degrevlex_key,
    graded_piece_dimension,
    integer_terms,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    monomials_of_degree,
    sum_of_products,
)

DEFAULT_PAIR_CAP = 100_000
# Largest graded piece of a dualized resolution module that a Rao profile
# may eliminate over; pieces grow like C(-k, 3) as the twist k falls.  The
# largest any shipped test, demo or benchmark input reaches is 308.
MAX_DUAL_PIECE = 2000
# Most standard monomials buchberger's Hilbert-driven skip walks through in
# one call; past it no more pairs are skipped in the call, so a pair of huge
# degree (z0*z1 and z1^(10^8)) is not preceded by a walk through every degree
# below it.  The largest any hilbert-pool ideal walks is 1008.
MAX_STANDARD_WALK = 20_000


# ---------------------------------------------------------------------------
# division and Buchberger, fraction-free over Z
#
# Inside this section a polynomial is a dict of integer coefficients keyed
# by reversed exponent tuples (e3, e2, e1, e0).  Among monomials of one
# degree the lexicographically smallest reversed tuple is the largest in
# degrevlex, so a min-heap of them hands out terms in descending order;
# products, lcms and divisibility are componentwise and do not care.  A
# basis element is a triple (lead, lead coefficient, tail), built once:
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


def _divide(work: dict, table):
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
    """
    heap = list(work)
    heapify(heap)
    remainder = {}
    mult = 1
    while heap:
        m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, a, tail in table:
            if lead[0] <= m[0] and lead[1] <= m[1] and lead[2] <= m[2] and lead[3] <= m[3]:
                q0, q1, q2, q3 = m[0] - lead[0], m[1] - lead[1], m[2] - lead[2], m[3] - lead[3]
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
                    mm = (gm[0] + q0, gm[1] + q1, gm[2] + q2, gm[3] + q3)
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
    return remainder, mult


def normal_form(f: HomogeneousPolynomial, basis) -> HomogeneousPolynomial:
    """Remainder of f under division by a list of nonzero polynomials."""
    table = [_basis_element({m[::-1]: c for m, c in integer_terms(g.terms)[1].items()})
             for g in basis if g]
    den, work = integer_terms(f.terms)
    remainder, mult = _divide({m[::-1]: c for m, c in work.items()}, table)
    scale = mult * den
    return HomogeneousPolynomial._raw(
        f.degree, {m[::-1]: Fraction(c, scale) for m, c in remainder.items()})


def s_polynomial(f: HomogeneousPolynomial, g: HomogeneousPolynomial) -> HomogeneousPolynomial:
    top = mono_lcm(f.lead_monomial(), g.lead_monomial())
    mf = mono_quotient(top, f.lead_monomial())
    mg = mono_quotient(top, g.lead_monomial())
    return f.multiply_monomial(mf, 1 / f.lead_coefficient()) - g.multiply_monomial(
        mg, 1 / g.lead_coefficient()
    )


def _s_polynomial_terms(e, f) -> dict:
    """Integer terms of (b/g)·(L/lead e)·e - (a/g)·(L/lead f)·f for basis
    elements e and f with lead coefficients a and b, g = gcd(a, b) and L the
    lcm of their leads; the leads cancel."""
    (le, a, te), (lf, b, tf) = e, f
    top = mono_lcm(le, lf)
    g = gcd(a, b)
    acc = {}
    for lead, tail, scale in ((le, te, b // g), (lf, tf, -(a // g))):
        q = mono_quotient(top, lead)
        for m, c in tail:
            mm = mono_mul(m, q)
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
    minimal = [e for e in basis
               if not any(o is not e and mono_divides(o[0], e[0]) for o in basis)]
    out = []
    for e in minimal:
        lead, a, tail = e
        r, _ = _divide({lead: a, **dict(tail)}, [o for o in minimal if o is not e])
        lc = r[lead]
        out.append(HomogeneousPolynomial._raw(
            mono_degree(lead), {m[::-1]: Fraction(c, lc) for m, c in r.items()}))
    out.sort(key=lambda g: degrevlex_key(g.lead_monomial()))
    return out


def _ci_hilbert_function(degrees, d: int) -> int:
    """Coefficient of t^d in prod(1 - t^e for e in degrees) / (1 - t)^4.

    It is dim (S/I)_d when forms of these degrees are a regular sequence,
    and a lower bound for it whenever at most four forms of these degrees
    generate I (see the module docstring).
    """
    numerator = {0: 1}
    for e in degrees:
        shifted = dict(numerator)
        for a, c in numerator.items():
            shifted[a + e] = shifted.get(a + e, 0) - c
        numerator = shifted
    return sum(c * graded_piece_dimension(d - a) for a, c in numerator.items())


def _next_standard(standard, leads):
    """The standard monomials of degree d + 1 from those of degree d: a
    monomial is standard when all its divisors of degree d are and it is
    not itself one of the leads of degree d + 1."""
    hits = {}
    for m in standard:
        for u in ((m[0] + 1, m[1], m[2], m[3]), (m[0], m[1] + 1, m[2], m[3]),
                  (m[0], m[1], m[2] + 1, m[3]), (m[0], m[1], m[2], m[3] + 1)):
            hits[u] = hits.get(u, 0) + 1
    return {u for u, n in hits.items()
            if n == (u[0] > 0) + (u[1] > 0) + (u[2] > 0) + (u[3] > 0) and u not in leads}


def _groebner_elements(generators, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None):
    """A degrevlex Groebner basis of the ideal, as primitive integer basis
    elements with pairwise distinct leads; neither minimal nor reduced.  The
    unit ideal gives [(ONE_MONO, 1, [])], the zero ideal [].

    Pairs are processed in normal strategy order (lowest lcm first) with the
    product and chain criteria.  With at most four nonzero generators a
    Hilbert function bound skips more (see the module docstring): dim
    (S/I)_d is at least _ci_hilbert_function of the generator degrees, since
    the rank of multiplying by the generators is at most its generic value.
    The degree-d monomials no current lead divides number at least
    dim (S/I)_d, so once they number exactly the bound, the leads span
    in(I)_d and every remaining pair of degree d reduces to zero.  With
    five or more generators the bound is Froeberg's conjecture, not a
    theorem, and no pair is skipped this way.

    Raises ResourceLimitError when more than pair_cap pairs are processed
    (skipped and pruned pairs count) or an S-polynomial that no criterion
    pruned exceeds degree_cap.
    """
    gens = [g for g in generators if g]
    if any(g.degree == 0 for g in gens):
        return [(ONE_MONO, 1, [])]
    # each generator divided by those kept before it: no lead divides another
    basis = []
    for g in sorted(gens, key=lambda g: degrevlex_key(g.lead_monomial())):
        r, _ = _divide({m[::-1]: c for m, c in integer_terms(g.terms)[1].items()}, basis)
        if r:
            basis.append(_basis_element(r))

    lead = [e[0] for e in basis]
    pending = set()
    queue = []  # heap of (lcm degree, lcm ascending in degrevlex, pair)

    def add_pairs(new):
        for k in range(new):
            top = mono_lcm(lead[k], lead[new])
            pending.add((k, new))
            heappush(queue, (mono_degree(top), -top[0], -top[1], -top[2], -top[3], k, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    # the bound takes the kept generators: they generate I, and are no more
    degrees = [mono_degree(m) for m in lead] if len(gens) <= 4 else None
    standard, std_degree, bound = {ONE_MONO}, 0, None  # standard monomials of std_degree
    walked = 0
    processed = 0
    while queue:
        key = heappop(queue)
        degree, pair = key[0], key[-2:]
        pending.discard(pair)
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(
                f"buchberger, degree {degree}: pair cap {pair_cap} exceeded")
        if degrees is not None:
            while std_degree < degree and walked <= MAX_STANDARD_WALK:
                walked += len(standard)
                std_degree += 1
                standard = _next_standard(
                    standard, {m for m in lead if mono_degree(m) == std_degree})
                bound = _ci_hilbert_function(degrees, std_degree)
            if std_degree == degree and len(standard) == bound:
                continue
        i, j = pair
        if mono_coprime(lead[i], lead[j]):
            continue
        top = mono_lcm(lead[i], lead[j])
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lead[k], top):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                chained = True
                break
        if chained:
            continue
        if degree_cap is not None and degree > degree_cap:
            raise ResourceLimitError(
                f"buchberger: S-polynomial of degree {degree} exceeds degree cap {degree_cap}")
        r, _ = _divide(_s_polynomial_terms(basis[i], basis[j]), basis)
        if not r:
            continue
        basis.append(_basis_element(r))
        lead.append(basis[-1][0])
        standard.discard(lead[-1])  # a lead of the pair degree is not standard
        add_pairs(len(basis) - 1)
    return basis


def buchberger(generators, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None):
    """Reduced degrevlex Groebner basis, monic and sorted by ascending lead:
    _reduced_basis of _groebner_elements, whose arguments and errors it
    takes."""
    return _reduced_basis(_groebner_elements(generators, pair_cap, degree_cap))


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals


def _minimalize(gens):
    gens = sorted(set(gens), key=mono_degree)
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


def _support(m):
    return [i for i in range(NVARS) if m[i]]


@lru_cache(maxsize=None)
def _hilbert_numerator(gens: tuple) -> tuple:
    """Coefficients of HS(S/J) * (1-t)^4 for a monomial ideal J.

    Returned as a tuple of (exponent, coefficient) pairs.
    """
    gens = _minimalize(gens)
    if not gens:
        return ((0, 1),)
    if ONE_MONO in gens:
        return ()
    pure = all(len(_support(g)) == 1 for g in gens)
    if pure:
        coeffs = {0: 1}
        for g in gens:
            d = mono_degree(g)
            nxt = dict(coeffs)
            for a, c in coeffs.items():
                nxt[a + d] = nxt.get(a + d, 0) - c
            coeffs = {a: c for a, c in nxt.items() if c}
        return tuple(sorted(coeffs.items()))
    counts = [0] * NVARS
    for g in gens:
        if len(_support(g)) > 1 or max(g) > 1:
            for i in _support(g):
                counts[i] += 1
    v = max(range(NVARS), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(NVARS))
    colon = []
    for g in gens:
        if g[v] > 0:
            colon.append(tuple(e - 1 if i == v else e for i, e in enumerate(g)))
        else:
            colon.append(g)
    plus = [g for g in gens if g[v] == 0] + [pivot]
    res = {}
    for a, c in _hilbert_numerator(_minimalize(tuple(plus))):
        res[a] = res.get(a, 0) + c
    for a, c in _hilbert_numerator(_minimalize(tuple(colon))):
        res[a + 1] = res.get(a + 1, 0) + c
    return tuple(sorted((a, c) for a, c in res.items() if c))


@lru_cache(maxsize=None)
def _regularity_bound(gens: tuple) -> int:
    """Upper bound for reg(S/J), J monomial; exact on complete intersections."""
    gens = _minimalize(gens)
    if not gens or ONE_MONO in gens:
        return 0
    mixed = [g for g in gens if len(_support(g)) > 1]
    if not mixed:
        return sum(mono_degree(g) - 1 for g in gens)
    counts = [0] * NVARS
    for g in mixed:
        for i in _support(g):
            counts[i] += 1
    v = max(range(NVARS), key=lambda i: counts[i])
    pivot = tuple(1 if i == v else 0 for i in range(NVARS))
    colon = tuple(
        tuple(e - 1 if i == v else e for i, e in enumerate(g)) if g[v] > 0 else g
        for g in gens
    )
    plus = tuple([g for g in gens if g[v] == 0] + [pivot])
    return max(_regularity_bound(_minimalize(colon)) + 1,
               _regularity_bound(_minimalize(plus)))


# ---------------------------------------------------------------------------
# Hilbert polynomials


def _binomial_poly(i: int):
    """Power-basis coefficients of C(t+i, i)."""
    coeffs = [Fraction(1)]
    for j in range(1, i + 1):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * j
            nxt[k + 1] += c
        coeffs = nxt
    return [c / factorial(i) for c in coeffs]


class HilbertPolynomial:
    """Polynomial in t stored in the binomial basis C(t+i, i)."""

    __slots__ = ("coeffs", "stable_from")

    def __init__(self, binomial_coeffs, stable_from: int = 0):
        coeffs = [Fraction(c) for c in binomial_coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.stable_from = stable_from

    @classmethod
    def from_power_coeffs(cls, power, stable_from: int = 0) -> "HilbertPolynomial":
        power = [Fraction(c) for c in power]
        while power and power[-1] == 0:
            power.pop()
        binom = []
        for i in range(len(power) - 1, -1, -1):
            b = power[i] * factorial(i)
            base = _binomial_poly(i)
            for k in range(i + 1):
                power[k] -= b * base[k]
            binom.append(b)
        binom.reverse()
        return cls(binom, stable_from)

    def power_coeffs(self):
        out = [Fraction(0)] * max(len(self.coeffs), 1)
        for i, b in enumerate(self.coeffs):
            for k, c in enumerate(_binomial_poly(i)):
                out[k] += b * c
        return out

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.power_coeffs()[-1]

    def __call__(self, t: int) -> Fraction:
        total = Fraction(0)
        for i, b in enumerate(self.coeffs):
            total += b * _binom_ext(t + i, i)
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        power = self.power_coeffs()
        parts = []
        for k in range(len(power) - 1, -1, -1):
            c = power[k]
            if c == 0 and not (k == 0 and len(power) == 1):
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if mono and abs(c) == 1:
                body = mono
            elif mono:
                body = f"{abs(c)}*{mono}"
            else:
                body = str(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"HilbertPolynomial({self})"


def _binom_ext(n: int, k: int) -> Fraction:
    """Polynomial extension of C(n, k) to negative n."""
    num = 1
    for j in range(k):
        num *= n - j
    return Fraction(num, factorial(k))


# ---------------------------------------------------------------------------
# graded ideals


class GradedIdeal:
    """Homogeneous ideal with cached Groebner basis and Hilbert data.

    The first query runs Buchberger and keeps its integer basis elements.
    lead_ideal, is_unit_ideal, the Hilbert methods, regularity_bound and
    the resolution read only those; groebner_basis, contains and equals
    also build the monic reduced basis from them, once.
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
        self._gb = None
        self._lead = None
        self._numerator = None

    @classmethod
    def from_expressions(cls, expressions) -> "GradedIdeal":
        from .polyring import parse_polynomial

        return cls([parse_polynomial(e) for e in expressions])

    @classmethod
    def from_file(cls, path) -> "GradedIdeal":
        lines = []
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.split("#", 1)[0].strip()
                if line:
                    lines.append(line)
        return cls.from_expressions(lines)

    def _basis_elements(self, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None):
        """The integer basis elements of _groebner_elements, computed on the
        first call, with that call's caps."""
        if self._elements is None:
            self._elements = _groebner_elements(self.generators, pair_cap, degree_cap)
        return self._elements

    def groebner_basis(self, pair_cap: int = DEFAULT_PAIR_CAP, degree_cap=None):
        if self._gb is None:
            self._gb = tuple(_reduced_basis(self._basis_elements(pair_cap, degree_cap)))
        return self._gb

    def lead_ideal(self) -> tuple:
        """Minimal monomial generators of the lead-term ideal."""
        if self._lead is None:
            self._lead = _minimalize(tuple(e[0][::-1] for e in self._basis_elements()))
        return self._lead

    def is_unit_ideal(self) -> bool:
        return ONE_MONO in self.lead_ideal()

    def contains(self, f: HomogeneousPolynomial) -> bool:
        if not f:
            return True
        return normal_form(f, list(self.groebner_basis())).is_zero()

    def equals(self, other: "GradedIdeal") -> bool:
        return self.groebner_basis() == other.groebner_basis()

    def hilbert_numerator(self) -> dict:
        """Coefficients of HS(S/I) * (1-t)^4, keyed by exponent."""
        if self._numerator is None:
            self._numerator = dict(_hilbert_numerator(self.lead_ideal()))
        return self._numerator

    def hilbert_function(self, k: int) -> int:
        """dim (S/I)_k, exact in every degree."""
        total = 0
        for a, c in self.hilbert_numerator().items():
            if k - a >= 0:
                total += c * comb(k - a + 3, 3)
        return total

    def hilbert_polynomial(self) -> HilbertPolynomial:
        if self.is_unit_ideal():
            raise ValueError("the unit ideal has no Hilbert polynomial")
        num = self.hilbert_numerator()
        power = [Fraction(0)] * 4
        for a, c in num.items():
            shifted = _shifted_cubic(a)
            for k in range(4):
                power[k] += c * shifted[k]
        stable = max(num, default=0) - 3
        return HilbertPolynomial.from_power_coeffs(power, stable_from=stable)

    def regularity_bound(self) -> int:
        """Certified upper bound for reg(S/I) via the lead-term ideal."""
        return _regularity_bound(self.lead_ideal())

    def max_generator_degree(self) -> int:
        return max((g.degree for g in self.generators), default=0)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GradedIdeal({gens})"


@lru_cache(maxsize=None)
def _shifted_cubic(a: int):
    """Power-basis coefficients of C(t - a + 3, 3)."""
    coeffs = [Fraction(1)]
    for j in (1, 2, 3):
        shift = j - a
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * shift
            nxt[k + 1] += c
        coeffs = nxt
    return [c / 6 for c in coeffs]


def hilbert_polynomial(ideal: GradedIdeal) -> HilbertPolynomial:
    return ideal.hilbert_polynomial()


def curve_invariants(ideal: GradedIdeal):
    """(degree, arithmetic genus) of the curve cut out by the ideal."""
    P = ideal.hilbert_polynomial()
    if P.degree() != 1:
        raise NotACurveError(
            f"Hilbert polynomial {P} has degree {P.degree()}, expected 1"
        )
    power = P.power_coeffs()
    a, b = power[1], power[0]
    if a.denominator != 1 or b.denominator != 1:
        raise NotACurveError("non-integral Hilbert polynomial")
    return int(a), 1 - int(b)


# ---------------------------------------------------------------------------
# graded syzygies


def graded_syzygies(row, weights, target_degree: int):
    """Basis of tuples (g_i) with deg g_i = target_degree - weights[i] and
    sum g_i * row[i] = 0, by per-degree exact kernel computation."""
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
    basis = _degree_basis(twists, target_degree)
    columns = _degree_matrix([{0: p} for p in row], twists, [0], target_degree)
    out = []
    for combo in kernel_of_columns(columns):
        element = _element(combo, basis, twists, target_degree)
        out.append(
            tuple(
                element.get(slot, HomogeneousPolynomial.zero(target_degree - w))
                for slot, w in enumerate(weights)
            )
        )
    return out


def _degree_basis(twists, degree):
    """Index map for the degree-e piece of (+) S(b): list of (slot, monomial)."""
    basis = []
    for slot, b in enumerate(twists):
        for m in monomials_of_degree(degree + b):
            basis.append((slot, m))
    return basis


def _degree_matrix(columns, twists, target_twists, degree):
    """Degree-e piece of the map (+) S(b_j) -> (+) S(c_i) sending the j-th
    generator to columns[j], a map from target slot to polynomial: one sparse
    column per entry of _degree_basis(twists, degree), over the rows
    _degree_basis(target_twists, degree)."""
    row_index = {key: i for i, key in enumerate(_degree_basis(target_twists, degree))}
    matrix = []
    for slot, m in _degree_basis(twists, degree):
        vec = {}
        for target, poly in columns[slot].items():
            for pm, pc in poly.terms.items():
                vec[row_index[(target, mono_mul(pm, m))]] = pc
        matrix.append(vec)
    return matrix


def _element(vec, basis, twists, degree):
    """The element of (+) S(b) with coordinates vec over the degree-e basis,
    as a map from slot to homogeneous polynomial."""
    slots = {}
    for ci, c in vec.items():
        slot, m = basis[ci]
        slots.setdefault(slot, {})[m] = c
    return {slot: HomogeneousPolynomial(degree + twists[slot], terms)
            for slot, terms in slots.items()}


# ---------------------------------------------------------------------------
# minimal free resolutions


@dataclass
class FreeResolution:
    """Truncated minimal graded free resolution of S/I.

    twists[i] lists the signed twists b with F_i = (+) S(b); twists[0] = [0].
    differentials[i] holds the columns of d_{i+1} : F_{i+1} -> F_i, each a
    map from F_i slot index to a homogeneous polynomial.
    """

    twists: list
    differentials: list
    bound: int

    def length(self) -> int:
        return len(self.twists) - 1

    def layer_dimension(self, i: int, degree: int) -> int:
        if i >= len(self.twists):
            return 0
        return sum(graded_piece_dimension(degree + b) for b in self.twists[i])

    def betti(self):
        return [[i, sorted(tw)] for i, tw in enumerate(self.twists)]

    def betti_json(self):
        return {"betti": self.betti()}

    def alternating_sum_ok(self, hilbert_function) -> bool:
        for e in range(0, self.bound + 1):
            total = 0
            for i in range(len(self.twists)):
                total += (-1) ** i * self.layer_dimension(i, e)
            if total != hilbert_function(e):
                return False
        return True

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


def minimal_free_resolution(ideal: GradedIdeal, degree_bound=None) -> FreeResolution:
    """Minimal graded free resolution of S/I, complete in degrees <= bound."""
    if ideal.is_unit_ideal():
        raise ValueError("S/I is zero; no resolution is computed")
    maxdeg = ideal.max_generator_degree()
    regb = ideal.regularity_bound()
    if degree_bound is None:
        bound = regb + 6
    else:
        if degree_bound < maxdeg + 4:
            raise ValueError("degree bound must be at least max generator degree + 4")
        bound = degree_bound
    if bound > 60:
        raise ResourceLimitError(f"truncation bound {bound} is too large")

    elements = ideal._basis_elements()
    lead_gens = ideal.lead_ideal()
    res = FreeResolution(twists=[[0]], differentials=[], bound=bound)
    if not lead_gens:
        return res

    for layer in range(1, 6):
        # generators of F_layer, as columns of d_layer over F_{layer-1}
        twists, columns = [], []
        source = res.twists[layer - 1]
        for e in range(min(-b for b in source), min(bound, regb + layer + 1) + 1):
            where = f"layer {layer}, degree {e}"
            # dim ker(d_{layer-1})_e, by exactness; for layer 1, dim I_e
            target = (-1) ** layer * ideal.hilbert_function(e) + sum(
                (-1) ** (layer - 1 - i) * res.layer_dimension(i, e) for i in range(layer)
            )
            ech = Echelon()
            for vec in _degree_matrix(columns, twists, source, e):
                if ech.rank == target:
                    break
                ech.insert(vec)
            if ech.rank == target:
                continue
            if e == regb + layer + 1:
                raise ResourceLimitError(
                    f"{where}: resolution generator found at the safety margin degree"
                )
            if layer == 1:
                # m - NF(m) for each m in in(I)_e; the normal form is unique,
                # so dividing by the unreduced elements gives the same one
                reduced = []
                for m in monomials_of_degree(e):
                    if any(mono_divides(g, m) for g in lead_gens):
                        r, mult = _divide({m[::-1]: 1}, elements)
                        terms = {m: Fraction(1)}
                        for rm, c in r.items():
                            terms[rm[::-1]] = Fraction(-c, mult)
                        reduced.append({0: HomogeneousPolynomial._raw(e, terms)})
                candidates = _degree_matrix(reduced, [-e] * len(reduced), [0], e)
            else:
                candidates = kernel_of_columns(_degree_matrix(
                    res.differentials[layer - 2], source, res.twists[layer - 2], e))
            if len(candidates) != target:
                raise ResourceLimitError(f"{where}: kernel dimension audit failed")
            basis = _degree_basis(source, e)
            for z in candidates:
                if ech.insert(z) is not None:
                    twists.append(-e)
                    columns.append(_element(z, basis, source, e))
            if ech.rank != target:
                raise ResourceLimitError(f"{where}: image dimension audit failed")
        if not twists:
            break
        if layer == 5:
            raise ResourceLimitError(
                f"layer 5, degree {-max(twists)}: resolution did not terminate at length 4"
            )
        res.twists.append(twists)
        res.differentials.append(columns)

    if not res.alternating_sum_ok(ideal.hilbert_function):
        raise ResourceLimitError(
            f"all layers, degrees 0..{bound}: resolution dimension audit failed"
        )
    return res


# ---------------------------------------------------------------------------
# first cohomology of the ideal sheaf (Rao dimensions)


@dataclass
class RaoProfile:
    """Per-twist first cohomology of a curve's ideal sheaf."""

    profile: dict
    total: int
    window: tuple

    def to_json(self):
        return {"profile": {str(k): v for k, v in sorted(self.profile.items())},
                "total": self.total}


def default_rao_window(ideal: GradedIdeal):
    maxdeg = ideal.max_generator_degree()
    return (-maxdeg, 3 + sum(g.degree for g in ideal.generators))


def rao_module_dimensions(ideal: GradedIdeal, window=None) -> RaoProfile:
    """h^1 of the ideal sheaf of the curve, twist by twist, over the window.

    Computed as the dimension of the third Ext module of S/I against the
    twisted canonical module, read off the dualized resolution; the value at
    both window endpoints must vanish.
    """
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
        for k in range(lo, hi + 1):
            dim2, dim3, dim4 = (sum(graded_piece_dimension(-b - 4 - k) for b in t)
                                for t in (t2, t3, t4))
            if dim3 == 0:
                break  # the pieces only shrink as k grows
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
    if profile.get(lo) or profile.get(hi):
        raise WindowTooSmallError(
            f"nonzero value at a window endpoint of [{lo}, {hi}]"
        )
    return RaoProfile(profile=profile, total=sum(profile.values()), window=(lo, hi))


def _dual_map_rank(twists_dom, twists_cod, columns, k: int) -> int:
    """Rank of the dual of d : F_cod -> F_dom in dual degree -k.

    The dual sends slot j of F_dom to the j-th row of d, so it is the map
    of free modules with slot twists -b - 4 - k taken in degree 0.
    """
    transposed = [{l: column[j] for l, column in enumerate(columns) if j in column}
                  for j in range(len(twists_dom))]
    ech = Echelon()
    for vec in _degree_matrix(transposed, [-b - 4 - k for b in twists_dom],
                              [-b - 4 - k for b in twists_cod], 0):
        ech.insert(vec)
    return ech.rank
