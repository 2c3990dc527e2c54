"""A fixed micro-loop of Fraction and integer arithmetic, timed to gauge the machine's speed.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz, Python 3.11) the same
code ran up to 1.8 times slower at some moments than at others, changing within
a second, with no steal time to show for it.  A loop timed
only before and after a multi-second cell misses that, so ``Sampler`` times the
loop from a ``SIGALRM`` handler every ``INTERVAL_S`` while the cells run.  Each
cell's time has the loops that interrupted it subtracted, and is scaled to the
reference speed by the mean loop time inside it:
``normalize(t, loop_s) = t * REFERENCE_S / loop_s``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0006
INTERVAL_S = 0.025


def loop() -> float:
    """Seconds for one pass of the fixed loop (about 0.6 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 60):
        acc = (acc + Fraction(i % 97, i % 89 + 1)) * Fraction(3, 5)
    total = 0
    for i in range(2500):
        total += (i * i) % 7
    return time.perf_counter() - start


def calibrate(repeats: int = 25) -> float:
    """Median loop time over a short burst, for intervals too short to sample."""
    return statistics.median(loop() for _ in range(repeats))


def normalize(seconds: float, loop_s: float) -> float:
    return seconds * REFERENCE_S / loop_s


class Sampler:
    """Times the loop every ``INTERVAL_S`` of wall time inside ``with`` (main thread only).

    Outside ``with`` it takes no samples, and ``measure`` only times.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(loop())

    def __enter__(self) -> "Sampler":
        self.samples.extend(loop() for _ in range(8))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn, *args, **kwargs):
        """Run ``fn``; return (its result, seconds without the loops, mean loop time or None)."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        inside = self.samples[first:]
        return result, elapsed - sum(inside), statistics.fmean(inside) if inside else None

    def recent(self, count: int = 8) -> float | None:
        """Mean of the last ``count`` samples; None if the sampler never ran."""
        return statistics.fmean(self.samples[-count:]) if self.samples else None
