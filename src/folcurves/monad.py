"""Monads of split bundles on P^3: Chern data of the cohomology bundle,
the regularity bound for symmetric-template monads, and the instanton
family used by the degree-3 classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidProfileError, NotTemplateModeError
from .sheafcoh import chern_series


@dataclass(frozen=True)
class MonadSpec:
    """Three-term monad recorded by the twist multisets of its terms.

    Template mode stores the symmetric shape: left = {-c_i}, right = {c_i},
    middle = {-b_j} united with {b_j}.
    """

    left: tuple
    middle: tuple
    right: tuple
    c_list: tuple | None = None
    b_list: tuple | None = None

    @classmethod
    def from_twists(cls, left, middle, right) -> "MonadSpec":
        return cls(_twists("left", left), _twists("middle", middle), _twists("right", right))

    @classmethod
    def from_template(cls, c_list, b_list) -> "MonadSpec":
        c_list = _twists("c", c_list)
        b_list = _twists("b", b_list)
        if not c_list or len(b_list) != len(c_list) + 1:
            raise InvalidProfileError("template needs s twists c and s+1 twists b")
        if c_list[0] < 1 or b_list[0] < 0:
            raise InvalidProfileError("template requires c_i >= 1 and b_j >= 0")
        left = tuple(sorted(-c for c in c_list))
        right = c_list
        middle = tuple(sorted([-b for b in b_list] + list(b_list)))
        return cls(left, middle, right, c_list, b_list)

    def is_template(self) -> bool:
        return self.c_list is not None

    def cohomology_rank(self) -> int:
        return len(self.middle) - len(self.left) - len(self.right)

    def to_json(self):
        data = {
            "left": list(self.left),
            "middle": list(self.middle),
            "right": list(self.right),
        }
        if self.is_template():
            data["template"] = {"c": list(self.c_list), "b": list(self.b_list)}
        return data


def _twists(name: str, twists) -> tuple:
    """The twists, a list or tuple of ints, sorted; InvalidProfileError
    naming the list otherwise (a JSON float, string or bool among them)."""
    if not isinstance(twists, (list, tuple)) or any(type(t) is not int for t in twists):
        raise InvalidProfileError(f"twists {name}: expected a list of integers")
    return tuple(sorted(twists))


def monad_chern(spec: MonadSpec):
    """(rank, c1, c2, c3) of the monad's middle cohomology: the Chern series
    of the middle term over that of the outer terms.  The divisor has
    constant term 1, so the quotient is a series of ints."""
    rank = spec.cohomology_rank()
    if rank < 1:
        raise InvalidProfileError(f"cohomology rank {rank} is not positive")
    num = chern_series(spec.middle)
    den = chern_series((*spec.left, *spec.right))
    total = [1, 0, 0, 0]
    for k in (1, 2, 3):
        total[k] = num[k] - sum(den[j] * total[k - j] for j in range(1, k + 1))
    return (rank, *total[1:])


def monad_regularity_bound(spec: MonadSpec) -> int:
    """Castelnuovo-Mumford bound 2c_s + b_3 + ... + b_{s+1} + sum(c) - 2."""
    if not spec.is_template():
        raise NotTemplateModeError(
            "regularity bound applies to symmetric-template monads only"
        )
    c, b = spec.c_list, spec.b_list
    return 2 * c[-1] + sum(b[2:]) + sum(c) - 2


def instanton_monad(n: int) -> MonadSpec:
    """The charge-n instanton monad: c = (1,)*n, b = (0,)*(n+1)."""
    if n < 1:
        raise InvalidProfileError("charge must be at least 1")
    return MonadSpec.from_template((1,) * n, (0,) * (n + 1))


def mismatched_charge6_monads():
    """The two displayed charge-6 exceptional monads, stored verbatim.

    The first is dimensionally inconsistent with a rank-2 cohomology bundle
    (middle rank 10 against 6), so only Chern data is computed on these and
    the regularity bound refuses them (no template mode).
    """
    first = MonadSpec.from_twists(
        left=(-2, -2, -1),
        middle=(-1, -1, -1, 0, 0, 0, 0, 1, 1, 1),
        right=(1, 2, 2),
    )
    second = MonadSpec.from_twists(
        left=(-3, -1),
        middle=(-2, 0, 0, 0, 0, 2),
        right=(1, 3),
    )
    return first, second
