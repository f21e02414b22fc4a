"""The monomial helpers on exponent 4-tuples that polyring had before its
monomials became packed ints, kept verbatim for the tuple oracles of the
tests, so that no oracle calls the code it checks."""

from functools import lru_cache

VAR_NAMES = ("z0", "z1", "z2", "z3")

ONE_MONO = (0, 0, 0, 0)


def mono_degree(m) -> int:
    return m[0] + m[1] + m[2] + m[3]


def mono_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def degrevlex_key(m):
    """Sort key; larger key means larger monomial in degrevlex."""
    return (m[0] + m[1] + m[2] + m[3], -m[3], -m[2], -m[1], -m[0])


def mono_str(m) -> str:
    if m == ONE_MONO:
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{VAR_NAMES[i]}^{e}")
    return "*".join(parts)


@lru_cache(maxsize=None)
def monomials_of_degree(k: int) -> tuple:
    """All degree-k monomials, descending degrevlex."""
    if k < 0:
        return ()
    out = []
    for e0 in range(k, -1, -1):
        for e1 in range(k - e0, -1, -1):
            for e2 in range(k - e0 - e1, -1, -1):
                out.append((e0, e1, e2, k - e0 - e1 - e2))
    out.sort(key=degrevlex_key, reverse=True)
    return tuple(out)
