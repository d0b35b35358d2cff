"""A fixed reference kernel that gauges how fast the host runs, while the program runs.

The host this benchmark was built on shares its cores: a fixed pure-Python
loop swings by up to 70 % in speed, both from one second to the next and over
minutes, and its thread CPU time follows its wall time.  No median over a run
removes swings that last longer than the run, and a gauge taken only before
and after a region of several seconds misses the swings inside it.

So a timed region runs under a `Gauge`.  It times the kernel once at the
start, every ``TICK_S`` seconds from a timer signal, and once at the end.
Each stretch of the program's time between two gauges is rescaled to the
speed at which the kernel takes ``NOMINAL_S``, by the mean of those two
gauges, and the stretches are summed.  The time the gauges take inside the
region is left out.  A program that gets faster or slower moves the rescaled
time as it moves the raw one; a host that gets faster or slower moves the
program and the kernel alike, and the rescaled time stays.

The kernel does what the program's hot paths do, without calling the program:
products of sparse polynomials held as dicts from exponent tuples to complex
and Fraction coefficients.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.002   # kernel seconds at the reference speed (a quiet moment of that host)
TICK_S = 0.1        # seconds between gauges inside a region


def _homogeneous(degree: int, coefficient) -> dict:
    return {e: coefficient(k) for k, e in enumerate(
        e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree)}


_COMPLEX = (_homogeneous(3, lambda k: complex(k % 7 - 3, k % 5 - 2)),
            _homogeneous(3, lambda k: complex(k % 3 - 1, k % 11 - 5)))
_RATIONAL = (_homogeneous(2, lambda k: Fraction(k % 9 - 4, k % 4 + 1)),
             _homogeneous(3, lambda k: Fraction(k % 5 - 2, k % 7 + 1)))


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def kernel() -> int:
    terms = 0
    for _ in range(3):
        terms += len(_product(*_COMPLEX))
    terms += len(_product(*_RATIONAL))
    return terms


def gauge() -> float:
    """Seconds the kernel takes now, without a garbage collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


_active: "Gauge | None" = None


def _on_alarm(signum, frame):
    if _active is not None:
        _active._gauge()


class Gauge:
    """Context manager: the program's time inside it, raw and at the reference speed.

    After the block, `wall` is the block's wall time less the gauges taken in
    it, and `rescaled` is that time at the reference speed.  `gauges` holds
    every gauge, the two outside the block included.  The timer signal goes
    to the main thread, so a block must be entered there.
    """

    def __init__(self):
        self.gauges: list[float] = []
        self.wall = self.rescaled = 0.0
        self._busy = False

    def _gauge(self):
        """Close the stretch that ends now; the gauge's own time is not in it."""
        if self._busy:
            return
        self._busy = True
        stretch = time.perf_counter() - self._mark
        g = gauge()
        self.wall += stretch
        self.rescaled += stretch * NOMINAL_S / ((self.gauges[-1] + g) / 2)
        self.gauges.append(g)
        self._mark = time.perf_counter()
        self._busy = False

    def __enter__(self) -> "Gauge":
        global _active
        signal.signal(signal.SIGALRM, _on_alarm)
        self.gauges.append(gauge())
        _active = self
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active = None
        self._gauge()
        return False
