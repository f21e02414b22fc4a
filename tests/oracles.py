"""Independent routes to the numbers the package computes, for the tests.

Each route reads polynomials only through their public terms and computes
from a definition: no Buchberger run, no section, no lead ideal and no
resolution loop.  Ranks come from Span, a sparse fraction-free
elimination, which test_polyring checks against fraction_rank, a textbook
elimination over Fractions.

(a) quotient_dimension(gens, k): dim (S/I)_k, dim S_k less the rank of the
    monomial multiples of the generators in degree k; in_ideal from the
    same ranks; values_of, the Hilbert function of a numerator; remainder,
    textbook division over Q or mod a prime, and s_pairs_reduce,
    Buchberger's criterion; assert_groebner_basis from the ranks and the
    criterion; monomial_numerator, inclusion and exclusion over a monomial
    ideal.
(b) betti(gens, top): beta_{i,j}(S/I) for j <= top, the dimensions of the
    Koszul homology H_i(z0..z3; S/I)_j (Eisenbud, The Geometry of
    Syzygies, GTM 229, 2005); monomial_betti, the same one multidegree at
    a time; koszul_betti and split_betti, the closed forms for a complete
    intersection and for a foliation with split conormal; dual_rank and
    rao_pieces, H^1(I_C(k)) as dim3 - rank4 - rank3 of the dual of a
    resolution, each rank in full.
(c) evaluate, form_at, wedge_at, contract_at: polynomial and form
    identities checked at seeded integer points (Schwartz, J. ACM 27,
    1980).
(d) pfaffian: the contact test of a projective linear 1-form.
"""
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, gcd, lcm, prod
from random import Random

from folcurves.polyring import HomogeneousPolynomial, exponent_tuples, packed_monomials

SUBSETS = [list(combinations(range(4), i)) for i in range(5)]


@lru_cache(maxsize=None)
def monomials(k: int) -> tuple:
    """The exponent tuples of degree k, none for k < 0."""
    return tuple(exponent_tuples(packed_monomials(k))) if k >= 0 else ()


@lru_cache(maxsize=None)
def _index(k: int) -> dict:
    return {m: i for i, m in enumerate(monomials(k))}


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def cleared(vec: dict) -> dict:
    """The sparse vector vec of ints or Fractions times the lcm of its
    denominators, its zero entries dropped: the same line, in ints."""
    den = lcm(*(x.denominator for x in vec.values()))
    return {i: int(x * den) for i, x in vec.items() if x}


def fraction_rank(rows) -> int:
    """The rank of a dense matrix by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank(vectors) -> int:
    """The rank of sparse vectors of ints or Fractions."""
    span = Span()
    for vec in vectors:
        if any(vec.values()):
            span.insert(cleared(vec))
    return span.rank


class Span:
    """The span of sparse integer vectors, in echelon form: each row is
    stored under its smallest coordinate, its pivot.  reduce clears a
    vector at every pivot, smallest coordinate first, touching only the
    rows of the pivots it meets."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> tuple:
        """(s, v): s a positive integer and v the vector s vec less a
        combination of the rows, zero at every pivot."""
        v, scale = dict(vec), 1
        todo = sorted(k for k in v if k in self.rows)
        heapify(todo)
        while todo:
            p = heappop(todo)
            f = v.get(p)
            if not f:
                continue
            row = self.rows[p]
            g = gcd(row[p], f)
            s, t = row[p] // g, f // g
            if s < 0:
                s, t = -s, -t
            if s != 1:
                scale *= s
                v = {c: x * s for c, x in v.items()}
            for c, x in row.items():
                y = v.get(c, 0) - t * x
                if y:
                    if c not in v and c in self.rows:
                        heappush(todo, c)
                    v[c] = y
                else:
                    del v[c]
        return scale, v

    def insert(self, vec: dict) -> bool:
        """Add vec, if it is independent of the rows; whether it was."""
        v = self.reduce(vec)[1]
        if v:
            p = min(v)
            g = gcd(*v.values())
            self.rows[p] = {c: x // g for c, x in v.items()}
        return bool(v)


# ---------------------------------------------------------------------------
# (a) Hilbert functions and membership by the rank of the multiples


def _terms(g) -> dict:
    return g.terms if isinstance(g, HomogeneousPolynomial) else g


def ideal_piece(gens, k: int) -> "Span":
    """The Span of I_k: every monomial multiple of degree k of each
    generator, as a vector over monomials(k)."""
    index, span = _index(k), Span()
    for g in gens:
        terms = cleared(_terms(g))
        if not terms:
            continue
        for m in monomials(k - sum(next(iter(terms)))):
            span.insert({index[_add(t, m)]: c for t, c in terms.items()})
    return span


def quotient_dimension(gens, k: int) -> int:
    """dim (S/I)_k for the ideal I the polynomials gens generate."""
    return comb(k + 3, 3) - ideal_piece(gens, k).rank if k >= 0 else 0


def in_ideal(f, gens) -> bool:
    """Whether the form f lies in the ideal gens generate."""
    if not f:
        return True
    index = _index(f.degree)
    vec = cleared({index[m]: c for m, c in f.terms.items()})
    return not ideal_piece(gens, f.degree).insert(vec)


def values_of(numerator: dict, top: int) -> list:
    """H(0..top) of the Hilbert series numerator / (1 - t)^4."""
    return [sum(c * comb(k - a + 3, 3) for a, c in numerator.items() if k >= a)
            for k in range(top + 1)]


def divides(a, b) -> bool:
    """Whether the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def standard_count(leads, k: int) -> int:
    """The degree-k monomials that no exponent tuple of leads divides."""
    return sum(not any(divides(lead, m) for lead in leads) for m in monomials(k))


def degrevlex_key(m):
    """Sort key of exponent tuples, larger in degrevlex: the larger degree,
    then the smaller last differing exponent."""
    return (sum(m), -m[3], -m[2], -m[1], -m[0])


def lead_of(terms: dict):
    """The degrevlex largest exponent tuple among the keys of terms."""
    return max(terms, key=degrevlex_key)


def assert_groebner_basis(basis, gens):
    """basis is a Groebner basis of the ideal I that gens generate: each
    element lies in I, its lead monomials leave as many standard monomials
    as S/I has in each degree up to the largest of the basis and the
    generators, so that it generates I, and every S-polynomial reduces to 0
    on it (Buchberger's criterion).  Returns the leads."""
    basis = [b for b in map(_terms, basis) if b]
    gens = [g for g in gens if _terms(g)]
    leads = [lead_of(b) for b in basis]
    top = max((sum(lead_of(t)) for t in basis + [_terms(g) for g in gens]), default=0)
    for k in range(top + 1):
        piece, index = ideal_piece(gens, k), _index(k)
        assert standard_count(leads, k) == comb(k + 3, 3) - piece.rank, k
        for b in basis:
            if sum(next(iter(b))) == k:
                assert not piece.insert(cleared({index[m]: c for m, c in b.items()})), b
    s_pairs_reduce(basis)
    return leads


# ---------------------------------------------------------------------------
# (b) Betti numbers by Koszul homology


def _reducer(gens, d: int):
    """(standard, nf) for degree d: the positions of the monomials that are
    no pivot of the Span of I_d, which index a complement of I_d, and
    nf(m) = (s, v) with s m = v mod I_d, s a positive integer and v an
    integer vector over the standard positions."""
    span = ideal_piece(gens, d)
    standard = [i for i in range(comb(d + 3, 3)) if i not in span.rows]
    position = {i: s for s, i in enumerate(standard)}
    index, memo = _index(d), {}

    def nf(m):
        if m not in memo:
            scale, v = span.reduce({index[m]: 1})
            memo[m] = scale, {position[c]: x for c, x in v.items()}
        return memo[m]

    return standard, nf


def _koszul_rank(reducers, i: int, j: int) -> int:
    """The rank of d_i: (K_i (x) S/I)_j -> (K_(i-1) (x) S/I)_j, where
    e_A (x) m goes to the sum over s of (-1)^s e_(A - a_s) (x) z_(a_s) m."""
    if not 1 <= i <= 4 or j - i < 0:
        return 0
    (source, _), (target, nf) = reducers[j - i], reducers[j - i + 1]
    mons = monomials(j - i)
    rows = {B: n for n, B in enumerate(SUBSETS[i - 1])}
    width = len(target)
    span = Span()
    for A in SUBSETS[i]:
        for s in source:
            parts = [(rows[A[:pos] + A[pos + 1:]] * width, (-1) ** pos,
                      *nf(_add(mons[s], tuple(int(v == a) for v in range(4)))))
                     for pos, a in enumerate(A)]
            scale = lcm(*(part[2] for part in parts))
            vec = Counter()
            for shift, sign, den, v in parts:
                for c, x in v.items():
                    vec[shift + c] += sign * scale // den * x
            vec = {c: x for c, x in vec.items() if x}
            if vec:
                span.insert(vec)
    return span.rank


def betti(gens, top: int) -> dict:
    """{(i, j): beta_{i,j}(S/I)} for j <= top, the nonzero ones, as the
    dimensions dim K_i(S/I)_j - rank d_i - rank d_(i+1) of the Koszul
    homology of z0..z3 on S/I."""
    reducers = [_reducer(gens, d) for d in range(top + 2)]
    # d_1 maps onto m (S/I), which is all of (S/I)_j for j > 0
    ranks = {(1, j): len(reducers[j][0]) for j in range(1, top + 1)}
    ranks.update({(i, j): _koszul_rank(reducers, i, j) for i in range(2, 5)
                  for j in range(top + 1)})
    out = {}
    for j in range(top + 1):
        for i in range(5):
            n = (comb(4, i) * len(reducers[j - i][0]) if j >= i else 0) - ranks.get(
                (i, j), 0) - ranks.get((i + 1, j), 0)
            if n:
                out[i, j] = n
    return out


def monomial_betti(gens) -> dict:
    """{(i, j): beta_{i,j}(S/J)} for the monomial ideal J that the exponent
    tuples gens generate: the Koszul complex of S/J is graded by
    multidegree, and its homology lies in the lcms of sets of generators,
    so each such multidegree alpha contributes the homology of a complex of
    at most six terms e_A (x) z^(alpha - A), A a set of variables."""
    gens = list(set(gens))

    def outside(m):
        return not any(divides(g, m) for g in gens)

    lcms = {(0, 0, 0, 0)}
    for g in gens:
        lcms |= {tuple(map(max, g, m)) for m in lcms}
    out = Counter()
    for alpha in lcms:
        def basis(i):
            return [A for A in SUBSETS[i] if all(alpha[a] for a in A)
                    and outside(tuple(e - (v in A) for v, e in enumerate(alpha)))]

        pieces = [basis(i) for i in range(5)]
        ranks = [0] * 6
        for i in range(1, 5):
            rows = {B: n for n, B in enumerate(pieces[i - 1])}
            ranks[i] = rank([{rows[A[:p] + A[p + 1:]]: (-1) ** p for p in range(i)
                              if A[:p] + A[p + 1:] in rows} for A in pieces[i]])
        for i in range(5):
            n = len(pieces[i]) - ranks[i] - ranks[i + 1]
            if n:
                out[i, sum(alpha)] += n
    return dict(out)


def koszul_betti(degrees) -> dict:
    """The Betti table of S/(f_1..f_r) for a regular sequence of forms of
    the given degrees: beta_{i,j} counts the i-sets of them of degree sum j."""
    out = Counter()
    for i in range(len(degrees) + 1):
        for chosen in combinations(degrees, i):
            out[i, sum(chosen)] += 1
    return dict(out)


def split_betti(d: int, a: int, b: int) -> dict:
    """The Betti table of the singular scheme of a foliation of degree d by
    curves with split conormal O(-a) + O(-b), a + b = d + 3: 1; 6 x (d+1);
    4 x (d+2), d+a-1, d+b-1; d+3, less one cancelled pair in degree d + 1
    for each of a, b equal to 2."""
    assert a + b == d + 3
    out = Counter({(0, 0): 1, (1, d + 1): 6, (2, d + 2): 4, (3, d + 3): 1})
    out[2, d + a - 1] += 1
    out[2, d + b - 1] += 1
    for twist in (a, b):
        if twist == 2:
            out[1, d + 1] -= 1
            out[2, d + 1] -= 1
    return {key: n for key, n in out.items() if n}


def table(res) -> dict:
    """The Betti table of a free resolution, {(i, j): beta_{i,j}}."""
    return dict(Counter((i, -b) for i, twists in enumerate(res.twists) for b in twists))


def regularity(betti_table: dict) -> int:
    """max(j - i) over the Betti table, 0 for the zero module."""
    return max((j - i for i, j in betti_table), default=0)


# ---------------------------------------------------------------------------
# (c) identities at seeded points


def points(seed: int, count: int = 3, size: int = 10 ** 6) -> list:
    rng = Random(seed)
    return [tuple(rng.randint(-size, size) for _ in range(4)) for _ in range(count)]


def evaluate(f, point) -> Fraction:
    """The value of a polynomial, or of its terms dict, at a point of
    integers or Fractions."""
    terms = _terms(f)
    den = lcm(*(c.denominator for c in terms.values()))
    return Fraction(sum(c.numerator * (den // c.denominator) * prod(map(pow, point, m))
                        for m, c in terms.items()), den)


def derivative_at(f, v: int, point) -> Fraction:
    """The value at point of the partial derivative of f by z_v, from the
    terms of f."""
    return evaluate({tuple(e - (u == v) for u, e in enumerate(m)): c * m[v]
                     for m, c in _terms(f).items() if m[v]}, point)


def form_at(form, point) -> dict:
    """A twisted form at a point: its sorted index tuples to the values of
    their coefficients, the zero ones dropped."""
    out = {}
    for idx, p in form.coefficients.items():
        value = evaluate(p, point)
        if value:
            out[tuple(idx)] = value
    return out


def _sign(seq) -> int:
    """The sign of the permutation that sorts the distinct entries seq."""
    return (-1) ** sum(a > b for a, b in combinations(seq, 2))


def wedge_at(a: dict, b: dict) -> dict:
    """The exterior product of two forms given by their values at a point:
    dz_I ^ dz_J is the sign that sorts I + J times dz_(sorted I + J), zero
    when I and J meet."""
    out = Counter()
    for I, x in a.items():
        for J, y in b.items():
            if not set(I) & set(J):
                out[tuple(sorted(I + J))] += _sign(I + J) * x * y
    return {k: v for k, v in out.items() if v}


def contract_at(a: dict, field: list) -> dict:
    """The interior product of a form, by its values at a point, with a
    vector field given by its values there: dz_I goes to the sum over s of
    (-1)^s field_(i_s) dz_(I - i_s)."""
    out = Counter()
    for I, x in a.items():
        for s, i in enumerate(I):
            out[I[:s] + I[s + 1:]] += (-1) ** s * field[i] * x
    return {k: v for k, v in out.items() if v}


def derivative_form_at(form, point) -> dict:
    """d of a 1-form at a point: the sum over i, j of the derivative of its
    dz_i coefficient by z_j times dz_j ^ dz_i."""
    out = Counter()
    for (i,), p in form.coefficients.items():
        terms = p.terms
        for j in range(4):
            if j != i:
                out[tuple(sorted((j, i)))] += _sign((j, i)) * derivative_at(terms, j, point)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# (d) the contact test


def pfaffian(form) -> Fraction:
    """a01*a23 - a02*a13 + a03*a12 of the skew matrix of a projective
    linear 1-form w = sum a_ij (z_i dz_j - z_j dz_i) / 2, read off the
    coefficient of z_i in the dz_j coefficient: a_ij is twice it."""
    def a(i, j):
        p = form.coefficients.get((j,))
        return p.terms.get(tuple(int(v == i) for v in range(4)), 0) if p else 0

    return a(0, 1) * a(2, 3) - a(0, 2) * a(1, 3) + a(0, 3) * a(1, 2)


# ---------------------------------------------------------------------------
# the dual resolution and the Rao module


def dual_rank(twists_dom, twists_cod, columns, k: int) -> int:
    """The rank in dual degree -k of the transpose of d: F_cod -> F_dom,
    whose column l maps generator l of F_cod to columns[l], a map from slot
    j of F_dom to a polynomial: on the pieces of degree -b - 4 - k, the
    generator (j, m) of F_dom^* goes to the sum over l of columns[l][j] * m
    in slot l of F_cod^*."""
    index = {}
    for l, b in enumerate(twists_cod):
        for m in monomials(-b - 4 - k):
            index[l, m] = len(index)
    vectors = []
    for j, b in enumerate(twists_dom):
        for m in monomials(-b - 4 - k):
            vec = {}
            for l, column in enumerate(columns):
                p = column.get(j)
                if p:
                    for t, c in p.terms.items():
                        key = index[l, _add(t, m)]
                        vec[key] = vec.get(key, 0) + c
            vectors.append(vec)
    return rank(vectors)


def rao_pieces(res, lo: int, hi: int) -> dict:
    """{k: (h, largest)} for k = lo..hi: h = dim3 - rank4 - rank3, which is
    H^1(I_C(k)) read off the dual of a minimal free resolution of length 3
    or 4, each rank in full, and the largest dimension of the pieces of
    F_2^*, F_3^*, F_4^* it reads.  Above the largest -b - 4 of F_3 every
    piece is zero, so those twists are left out."""
    if len(res.twists) < 4:
        return {}
    t2, t3 = res.twists[2], res.twists[3]
    t4 = res.twists[4] if len(res.twists) > 4 else []
    d3, d4 = res.differentials[2], (res.differentials[3] if t4 else [])
    out = {}
    for k in range(lo, min(hi, max(-b - 4 for b in t3)) + 1):
        dims = [sum(comb(-b - 1 - k, 3) for b in t if -b - 4 - k >= 0) for t in (t2, t3, t4)]
        h = dims[1] - (dual_rank(t3, t4, d4, k) if t4 else 0) - dual_rank(t2, t3, d3, k)
        out[k] = h, max(dims)
    return out


def degree_matrix(columns, twists, target_twists, e: int) -> list:
    """The degree-e piece of the map (+) S(b_j) -> (+) S(c_i) that sends
    generator j to columns[j], a map from target slot to polynomial: one
    sparse Fraction vector per (j, monomial of degree e + b_j)."""
    index = {}
    for i, c in enumerate(target_twists):
        for m in monomials(e + c):
            index[i, m] = len(index)
    out = []
    for j, b in enumerate(twists):
        for m in monomials(e + b):
            vec = {}
            for i, p in columns[j].items():
                for t, c in p.terms.items():
                    key = index[i, _add(t, m)]
                    vec[key] = vec.get(key, 0) + c
            out.append(vec)
    return out


def _descending(m):
    """Heap key of exponent tuples that pops the degrevlex largest first."""
    return (-sum(m), m[3], m[2], m[1], m[0])


def _table(basis, modulus=None) -> list:
    """(lead, a, the other terms) of each nonzero terms dict of basis: over
    Q cleared to integers, a its lead coefficient; mod a prime, a the
    inverse of it."""
    out = []
    for g in basis:
        g = cleared(g) if modulus is None else g
        if g:
            lead = lead_of(g)
            a = g[lead] if modulus is None else pow(g[lead], -1, modulus)
            out.append((lead, a, [(t, x) for t, x in g.items() if t != lead]))
    return out


def remainder(f: dict, basis, modulus=None) -> dict:
    """The remainder of the terms f on division by the terms dicts basis,
    over Q or, given a prime modulus, over the integers mod it: the
    degrevlex largest term left is divided by the first element whose lead
    divides it, else moved to the remainder."""
    return _remainder(f, _table(basis, modulus), modulus)


def _remainder(f: dict, table, modulus=None) -> dict:
    """remainder on a _table.  Over Q the terms left are kept as integers
    over one common denominator, as Span keeps its rows."""
    if modulus:
        work, den = {m: c % modulus for m, c in f.items() if c % modulus}, 1
    else:
        # the terms left are work / den
        work, den = cleared(f), lcm(*(c.denominator for c in f.values()))
    todo = [(_descending(m), m) for m in work]
    heapify(todo)
    out = {}
    while todo:
        m = heappop(todo)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, a, tail in table:
            if divides(lead, m):
                if modulus:
                    t = c * a
                else:
                    g = gcd(a, c)
                    s, t = a // g, c // g
                    if s < 0:
                        s, t = -s, -t
                    if s != 1:
                        den *= s
                        work = {k: y * s for k, y in work.items()}
                q = tuple(b - e for e, b in zip(lead, m))
                for u, x in tail:
                    key = _add(u, q)
                    y = work.get(key, 0)
                    if not y:
                        heappush(todo, (_descending(key), key))
                    y -= t * x
                    if modulus:
                        y %= modulus
                    if y:
                        work[key] = y
                    else:
                        work.pop(key, None)
                break
        else:
            out[m] = Fraction(c, den) if modulus is None else c
    return out


def s_pairs_reduce(basis) -> int:
    """Buchberger's criterion on the terms dicts basis: every S-polynomial of
    two elements whose leads share a variable has remainder 0.  Returns the
    number of S-polynomials divided."""
    table = _table(_terms(g) for g in basis)
    divided = 0
    for (a, x, f), (b, y, g) in combinations(table, 2):
        if not any(i and j for i, j in zip(a, b)):
            continue
        top = tuple(map(max, a, b))
        # y z^(top - a) f - x z^(top - b) g, the leads cancelled
        s = Counter()
        for lead, c, tail in ((a, y, f), (b, -x, g)):
            q = tuple(t - e for t, e in zip(top, lead))
            for t, z in tail:
                s[_add(t, q)] += c * z
        assert not _remainder({m: c for m, c in s.items() if c}, table), (a, b)
        divided += 1
    return divided


def monomial_numerator(gens) -> dict:
    """The Hilbert numerator of S/J for the monomial ideal J that the
    exponent tuples gens generate, by inclusion and exclusion: the sum over
    the sets of distinct generators of (-1)^size t^(degree of their lcm)."""
    lcms = Counter({(0, 0, 0, 0): 1})  # lcm -> signed count of the sets with it
    for g in set(gens):
        for m, n in list(lcms.items()):
            lcms[tuple(map(max, g, m))] -= n
    out = Counter()
    for m, n in lcms.items():
        out[sum(m)] += n
    return {k: c for k, c in sorted(out.items()) if c}
