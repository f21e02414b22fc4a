"""Machine-speed calibration, so that timings on a shared machine repeat.

On a few cores of a shared host the speed of a core drifts: a fixed
pure-Python loop runs up to a third faster or slower from one second or
minute to the next, in CPU time as much as in wall time, so raw timings
spread by more than any bound a regression check could use.  The drift hits
the program and any other pure-Python code alike, so the run measures it
while it happens: an interval timer interrupts the run every `INTERVAL_S`
seconds and times one call of a fixed pure-Python kernel (integer
arithmetic, a product of polynomials keyed by exponent tuples, elimination
of sparse rows of fractions: the kinds of work folcurves does).  The kernel
is the benchmark's own code and never calls folcurves, so a change to the
program cannot change it.

A timing from `a` to `b` is reported in seconds at the reference speed:

    scaled = (b - a - time spent in samples) * REFERENCE_S / mean sample time

where the mean is over the samples taken from `a` to `b`, or when none was,
over the nearest sample on each side.  (Across passes over identical ops,
this window spread the scaled median and tail op times less than windows
padded by 0.15 to 1.2 s, or one scale for the whole pass.)
`REFERENCE_S` is the kernel's typical time on the machine where the
benchmark was defined, so scaled seconds read close to that machine's
seconds.  The samples take about 2% of a run.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left
from fractions import Fraction
from random import Random

INTERVAL_S = 0.05
REFERENCE_S = 1.0e-3  # typical kernel time during a run on a 2-vCPU Xeon at 2.1 GHz, Python 3.11

_P = {(2, 1, 0, 0): 3, (0, 2, 1, 0): -1, (1, 0, 0, 2): 2, (0, 0, 3, 0): -2,
      (1, 1, 1, 0): 1, (0, 1, 0, 2): 4, (3, 0, 0, 0): -3, (0, 0, 1, 2): 1}
_Q = {(1, 0, 1, 0): 2, (0, 1, 0, 1): -3, (2, 0, 0, 0): 1, (0, 0, 0, 2): -1,
      (0, 2, 0, 0): 5, (1, 0, 0, 1): -2, (0, 0, 2, 0): 1, (0, 1, 1, 0): 3}
_rng = Random(3)
_ROWS = [{c: Fraction(_rng.randint(1, 9), _rng.randint(1, 5)) for c in _rng.sample(range(40), 12)}
         for _ in range(6)]

# one entry per sample, in time order
_starts = array("d")
_durations = array("d")
_previous = None


def kernel() -> int:
    """The fixed work timed by every sample: loops over small ints, a product
    of sparse polynomials keyed by exponent tuples, and the elimination of
    sparse rows of fractions."""
    s, d = 0, {}
    for i in range(2000):
        s += i * i % 7
        d[i & 255] = s
    product = {}
    for _ in range(3):
        for m, a in _P.items():
            for n, b in _Q.items():
                key = (m[0] + n[0], m[1] + n[1], m[2] + n[2], m[3] + n[3])
                c = product.get(key, 0) + a * b
                if c:
                    product[key] = c
                else:
                    product.pop(key, None)
        product = dict(sorted(product.items()))
    rows = [dict(row) for row in _ROWS]
    for i, row in enumerate(rows):
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: x * inv for c, x in row.items()}
        for other in rows[i + 1:]:
            f = other.get(pivot)
            if f:
                for c, x in row.items():
                    y = other.get(c, 0) - f * x
                    if y:
                        other[c] = y
                    else:
                        other.pop(c, None)
    return s + len(product) + sum(map(len, rows))


def sample(*_signal_args) -> None:
    started = time.perf_counter()
    kernel()
    _durations.append(time.perf_counter() - started)
    _starts.append(started)


def start() -> None:
    """Sample every INTERVAL_S seconds of wall time until `stop`."""
    global _previous
    _previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, _previous or signal.SIG_DFL)


def _between(a: float, b: float) -> slice:
    return slice(bisect_left(_starts, a), bisect_left(_starts, b))


def spent(a: float, b: float) -> float:
    """Seconds spent in samples between the perf_counter readings a and b.
    A sample runs whole between two bytecodes of the program, so it lies
    wholly inside or wholly outside the interval."""
    return sum(_durations[_between(a, b)])


def scale(a: float, b: float) -> float:
    """REFERENCE_S over the mean time of the samples between a and b, or of
    the nearest sample on each side; with no sample at all, one is taken now."""
    i, j = bisect_left(_starts, a), bisect_left(_starts, b)
    if i == j:
        i, j = max(i - 1, 0), min(j + 1, len(_starts))
    if i == j:
        sample()
        i, j = len(_starts) - 1, len(_starts)
    window = _durations[i:j]
    return REFERENCE_S * len(window) / sum(window)


def scaled(a: float, b: float) -> float:
    """The time from a to b, less the samples in it, at the reference speed."""
    return (b - a - spent(a, b)) * scale(a, b)
