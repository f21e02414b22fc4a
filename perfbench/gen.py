"""Seeded text generators for the benchmark's query inputs.

Everything here is plain text built from `random.Random`; nothing imports
folcurves, so a change to the program cannot change an input.  The pools in
`data/` were drawn from these streams (see `record.py`), and
`test_perfbench.py` checks that the streams still reproduce them byte for
byte.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

CONTACT = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"
PENCIL = "z0*dz1 - z1*dz0"

# Master seeds of the streams the recorded pools were drawn from.
OMEGA_SEEDS = {2: 20_190_902, 3: 20_190_903}
IDEAL_SEED = 20_190_904
WARMUP_SEED = 20_190_999


def monomials(k: int):
    """Exponent 4-tuples of total degree k, in a fixed order."""
    return [(e0, e1, e2, k - e0 - e1 - e2)
            for e0 in range(k, -1, -1)
            for e1 in range(k - e0, -1, -1)
            for e2 in range(k - e0 - e1, -1, -1)]


def mono_text(m) -> str:
    parts = [f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(m) if e]
    return "*".join(parts) or "1"


def poly_text(terms) -> str:
    """Text of a list of (coefficient, monomial) pairs with nonzero coefficients."""
    text = ""
    for c, m in terms:
        body = f"{abs(c)}*{mono_text(m)}"
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" {'+' if c > 0 else '-'} {body}"
    return text


def omega_text(rng: Random, degree: int) -> str:
    """A projective 1-form sum g_ij (z_i dz_j - z_j dz_i) of coefficient
    degree `degree`; each g_ij has every monomial with a coefficient in [-9, 9]."""
    parts = []
    for i, j in combinations(range(4), 2):
        terms = [(c, m) for m in monomials(degree - 1)
                 if (c := rng.randint(-9, 9))]
        if terms:
            parts.append(f"({poly_text(terms)})*(z{i}*dz{j} - z{j}*dz{i})")
    return " + ".join(parts)


def ideal_text(rng: Random) -> str:
    """Three generators of degree 3 or 4, six terms each, coefficients in
    +-1..3; one generator per line, the `folcurves hilbert` file format."""
    lines = []
    for _ in range(3):
        ms = rng.sample(monomials(rng.choice((3, 4))), 6)
        lines.append(poly_text([(rng.choice((-3, -2, -1, 1, 2, 3)), m) for m in ms]))
    return "\n".join(lines) + "\n"


def distinct(make, seed: int):
    """Endless stream of distinct texts from make(rng)."""
    rng = Random(seed)
    seen = set()
    while True:
        text = make(rng)
        if text not in seen:
            seen.add(text)
            yield text


def omega_stream(degree: int):
    return distinct(lambda rng: omega_text(rng, degree), OMEGA_SEEDS[degree])


def ideal_stream():
    return distinct(ideal_text, IDEAL_SEED)


def warmup_inputs():
    """One degree-2 1-form and one ideal drawn apart from every pool."""
    rng = Random(WARMUP_SEED)
    return omega_text(rng, 2), ideal_text(rng)
