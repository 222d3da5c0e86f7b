"""The machine's momentary speed, read from a fixed reference unit of work.

The benchmark's host is a shared VM whose single-thread speed moves by up to
2x, on scales from a fraction of a second to minutes (NOTES.md, "Noise").
Raw wall times of the same code then spread further between runs than any
useful regression bound.  So every timed call is rescaled to a fixed
reference speed:

- the reference unit below runs EDGE_UNITS times before and after the call;
- while the call runs, a wall-clock timer signal runs one unit every
  INTERVAL_S seconds in the same thread, so the speed is read all through a
  long call and not only at its two ends;
- the call's own time is its wall time minus the time of the units run
  inside it, and

      t_ref = own time * UNIT_SECONDS / (mean time of all those units).

The unit is fixed code that never touches the package, shaped like the
package's inner loops: dense products of small matrices over `Fraction` and
over integers mod 7, tuples, dict inserts and small function calls.  A
change to the package moves its own time and not the unit's, so it shows in
t_ref in full.  The timer signal only runs Python code between bytecodes of
the main thread; no thread or process is started.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from statistics import fmean

# The unit's wall time on the baseline machine (NOTES.md) at its fast level,
# so that t_ref reads as seconds on that machine at that level.
UNIT_SECONDS = 0.00075
EDGE_UNITS = 4
INTERVAL_S = 0.02

_N = 4
_A = tuple(tuple(Fraction(i - j, i + j + 1) for j in range(_N)) for i in range(_N))
_B = tuple(tuple((3 * i + j) % 7 for j in range(_N)) for i in range(_N))


def _matmul(a, b, add, mul, zero):
    n = len(a)
    return tuple(tuple(_dot(a[i], [b[k][j] for k in range(n)], add, mul, zero)
                       for j in range(n)) for i in range(n))


def _dot(row, col, add, mul, zero):
    acc = zero
    for x, y in zip(row, col):
        acc = add(acc, mul(x, y))
    return acc


def _add_q(x, y):
    return x + y


def _mul_q(x, y):
    return x * y


def _add_p(x, y):
    return (x + y) % 7


def _mul_p(x, y):
    return (x * y) % 7


def reference_work() -> int:
    """The fixed unit whose time is UNIT_SECONDS at the reference speed."""
    index = {}
    for step in range(3):
        a = _matmul(_A, _A, _add_q, _mul_q, Fraction(0))
        b = _matmul(_B, _B, _add_p, _mul_p, 0)
        b = _matmul(b, _B, _add_p, _mul_p, 0)
        index.update(((step, i, row), sum(row)) for i, row in enumerate(b))
    return len(index) + len(a)


def unit_seconds() -> float:
    """Wall time of one reference unit, with the collector off so that
    garbage left by the timed code is not charged to the unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Times calls at the reference speed.  Consecutive calls share the
    units between them: the units after one call are the units before the
    next.  With `inside=False` no unit runs during a call (the traced run,
    whose spans should time the program alone)."""

    def __init__(self, inside: bool = True):
        self.inside = inside
        self._edge: list[float] | None = None
        self._samples: list[float] = []

    def _edge_units(self) -> list[float]:
        return [unit_seconds() for _ in range(EDGE_UNITS)]

    def _sample(self, signum, frame) -> None:
        self._samples.append(unit_seconds())

    def time(self, call):
        """Run `call()`.  Returns (its result, or the exception it raised;
        its own wall seconds; its seconds at the reference speed)."""
        before = self._edge if self._edge is not None else self._edge_units()
        self._samples = []
        previous = None
        if self.inside:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # the caller decides what a raise means
            out = exc
        finally:
            wall = time.perf_counter() - start
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = self._samples
        self._edge = self._edge_units()
        own = wall - sum(inside)
        return out, own, own * UNIT_SECONDS / fmean(before + inside + self._edge)
