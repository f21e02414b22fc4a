"""Monad Chern data and the regularity bound."""

from itertools import combinations
from math import prod
from random import Random

import pytest

from folcurves.errors import InvalidProfileError, NotTemplateModeError
from folcurves.monad import (
    MonadSpec,
    instanton_monad,
    mismatched_charge6_monads,
    monad_chern,
    monad_regularity_bound,
)
from folcurves.sheafcoh import ChernTriple, SheafSymbol, chern_series


def test_instanton_monad_chern():
    for n in range(1, 6):
        spec = instanton_monad(n)
        assert monad_chern(spec) == (2, 0, n, 0)


def test_instanton_monad_shape():
    spec = instanton_monad(1)
    assert spec.to_json() == {
        "left": [-1], "middle": [0, 0, 0, 0], "right": [1],
        "template": {"c": [1], "b": [0, 0]},
    }


def test_split_bundle_monad():
    spec = MonadSpec.from_twists((), (-1, 0), ())
    assert monad_chern(spec) == (2, -1, 0, 0)


def test_exceptional_degree2_monad():
    spec = MonadSpec.from_twists((-2,), (-1, -1, 0, 0), (1,))
    assert monad_chern(spec) == (2, -1, 2, 0)


def test_regularity_bound_values():
    for n in range(1, 9):
        assert monad_regularity_bound(instanton_monad(n)) == n
    assert monad_regularity_bound(MonadSpec.from_template((1, 2, 2), (0, 0, 1, 1))) == 9
    assert monad_regularity_bound(MonadSpec.from_template((1,), (1, 1))) == 1


def test_regularity_requires_template():
    with pytest.raises(NotTemplateModeError):
        monad_regularity_bound(MonadSpec.from_twists((-2,), (-1, -1, 0, 0), (1,)))


def test_regularity_monotone_in_twists():
    rng = Random(0)
    for _ in range(30):
        s = rng.randint(1, 3)
        c = sorted(rng.randint(1, 3) for _ in range(s))
        b = sorted(rng.randint(0, 3) for _ in range(s + 1))
        base = monad_regularity_bound(MonadSpec.from_template(c, b))
        i = rng.randrange(s)
        c_up = sorted(c[:i] + [c[i] + 1] + c[i + 1:])
        assert monad_regularity_bound(MonadSpec.from_template(c_up, b)) >= base
        j = rng.randrange(s + 1)
        b_up = sorted(b[:j] + [b[j] + 1] + b[j + 1:])
        assert monad_regularity_bound(MonadSpec.from_template(c, b_up)) >= base


def test_rank_formula_and_template_selfduality():
    rng = Random(1)
    for _ in range(20):
        s = rng.randint(1, 3)
        c = sorted(rng.randint(1, 3) for _ in range(s))
        b = sorted(rng.randint(0, 2) for _ in range(s + 1))
        spec = MonadSpec.from_template(c, b)
        rank, c1, c2, c3 = monad_chern(spec)
        assert rank == len(spec.middle) - len(spec.left) - len(spec.right) == 2
        assert c1 == 0 and c3 == 0


def test_rank_zero_rejected():
    with pytest.raises(InvalidProfileError):
        monad_chern(MonadSpec.from_twists((-1,), (0, 0), (1,)))


def test_charge6_exceptional_monads_recorded_verbatim():
    first, second = mismatched_charge6_monads()
    rank1, c1_1, c2_1, _ = monad_chern(first)
    assert (rank1, c2_1) == (4, 6)  # middle rank 10 against 6: not a rank-2 monad
    assert monad_chern(second) == (2, 0, 6, 0)
    for spec in (first, second):
        with pytest.raises(NotTemplateModeError):
            monad_regularity_bound(spec)


def test_template_validation():
    with pytest.raises(InvalidProfileError):
        MonadSpec.from_template((), (0,))
    with pytest.raises(InvalidProfileError):
        MonadSpec.from_template((0,), (0, 0))
    with pytest.raises(InvalidProfileError):
        MonadSpec.from_template((1,), (0,))


def test_twist_lists_must_be_lists_of_integers():
    for bad in (5, None, "12", [1, "a"], [0, 0.5], [float("inf")], [True, 0], {"c": 1}):
        with pytest.raises(InvalidProfileError, match="^twists left: expected a list of integers$"):
            MonadSpec.from_twists(bad, [0, 0], [])
        with pytest.raises(InvalidProfileError, match="^twists b: expected a list of integers$"):
            MonadSpec.from_template([1], bad)
    assert MonadSpec.from_twists([1], (0, 0, 0, 0), [-1]) == MonadSpec((1,), (0, 0, 0, 0), (-1,))


# Chern data by definition: c_k of a sum of line bundles O(a_i) is the
# k-th elementary symmetric function of the twists, and the middle
# cohomology E of a monad A -> B -> C has c(A) c(E) c(C) = c(B), truncated
# past c_3.


def _elementary(twists) -> list:
    """[1, e_1, e_2, e_3] of the twists, each a sum over the k-sets of them."""
    return [sum(prod(chosen) for chosen in combinations(twists, k)) for k in range(4)]


def _truncated_product(*series) -> list:
    out = [1, 0, 0, 0]
    for factor in series:
        out = [sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(4)]
    return out


def _twist_lists(rng, count):
    """The empty list, one twist, and seeded lists of up to 12 twists."""
    chosen = [[], [0], [-4], [3], [1, -1], [-2, -2, -1], [10 ** 20, -(10 ** 20), 7]]
    return chosen + [[rng.choice((rng.randint(-6, 6), rng.randint(-1000, 1000)))
                      for _ in range(rng.randint(0, 12))] for _ in range(count)]


def test_chern_series_and_line_sums_match_the_former_fraction_code():
    for twists in _twist_lists(Random(49), 300):
        series = chern_series(twists)
        assert series == _elementary(twists)
        assert all(type(c) is int for c in series)
        symbol = SheafSymbol.line_sum(twists)
        assert symbol == SheafSymbol(len(twists), ChernTriple(*series[1:]), "line_sum",
                                     tuple(twists))
        assert all(type(c) is int for c in (symbol.chern.c1, symbol.chern.c2, symbol.chern.c3))
    assert SheafSymbol.line_sum(iter([2, -1, 3])) == SheafSymbol.line_sum([2, -1, 3])


def test_monad_chern_matches_the_former_fraction_code():
    """(rank, c1, c2, c3) with c(A) c(E) c(C) = c(B) through c_3 and the
    rank of B less those of A and C; a rank below 1 is refused."""
    rng = Random(50)
    specs = [*mismatched_charge6_monads(), *(instanton_monad(n) for n in range(1, 7)),
             MonadSpec.from_twists((), (-1, 0), ()), MonadSpec.from_twists((), (), ()),
             MonadSpec.from_twists((-1,), (0, 0), (1,))]
    for _ in range(300):
        left, middle, right = ([rng.randint(-5, 5) for _ in range(rng.randint(0, k))]
                               for k in (3, 11, 3))
        specs.append(MonadSpec.from_twists(left, middle, right))
    ranks = set()
    for spec in specs:
        rank = len(spec.middle) - len(spec.left) - len(spec.right)
        if rank < 1:
            with pytest.raises(InvalidProfileError,
                               match=f"^cohomology rank {rank} is not positive$"):
                monad_chern(spec)
            continue
        got = monad_chern(spec)
        assert type(got) is tuple and all(type(c) is int for c in got) and got[0] == rank
        assert _truncated_product(_elementary(spec.left), [1, *got[1:]],
                                  _elementary(spec.right)) == _elementary(spec.middle)
        ranks.add(rank)
    assert len(ranks) > 5
