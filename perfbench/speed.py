"""Machine-speed probe, and wall times normalised by it.

On a shared host the speed of the CPU itself drifts: the same op can take
1.5 times as long a few seconds later, and whole runs are fast or slow for
minutes at a time.  So every timing the benchmark reports is taken together
with a probe, a fixed piece of pure-Python float work timed right next to
it, and is scaled to the speed at which the probe takes ``REFERENCE_S``::

    normalised = wall * REFERENCE_S / probe

A change to ``catenary`` changes the wall time but not the probe, so it
shows in full; a slow stretch of the host stretches both, and cancels.
``REFERENCE_S`` is the probe's time in the fast state of a 2-vCPU Intel
Xeon VM with Python 3.11.7; it only fixes the unit.

Only the standard library is used, so that ``run.py`` can import it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import time

REFERENCE_S = 31e-6
# probes this many seconds either side of a timing count towards its speed
PAD_S = 0.1
# while a child process runs, the parent probes this often
EVERY_S = 0.02


def probe() -> float:
    """Seconds of a fixed piece of float work, the best of three tries."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.0
        for k in range(1, 300):
            x += math.sqrt(k) * math.sin(k)
        best = min(best, time.perf_counter() - t0)
    return best


class Probes:
    """Probe results and the times they were taken, on one clock."""

    def __init__(self, origin: float = 0.0):
        self.origin = origin
        self.at: list[float] = []
        self.s: list[float] = []

    def take(self) -> None:
        self.at.append(time.perf_counter() - self.origin)
        self.s.append(probe())

    def wait(self, proc: subprocess.Popen, timeout: float) -> int:
        """``proc.wait(timeout)``, probing every EVERY_S seconds meanwhile.

        A child's time is mostly spent on another core than the parent's,
        so the probes are taken all through it rather than only at its ends.
        """
        deadline = time.perf_counter() + timeout
        while True:
            self.take()
            left = deadline - time.perf_counter()
            try:
                return proc.wait(timeout=max(0.0, min(EVERY_S, left)))
            except subprocess.TimeoutExpired:
                if left <= EVERY_S:
                    raise


def normalise(starts, times, probes: Probes) -> list[float]:
    """Scale each wall time by the median probe taken within PAD_S of it.

    ``starts``/``times`` are the start and duration of each timing, on the
    clock of ``probes``, and a probe is taken next to every timing.
    """
    out = []
    for t0, dt in zip(starts, times):
        lo = bisect.bisect_left(probes.at, t0 - PAD_S)
        hi = bisect.bisect_right(probes.at, t0 + dt + PAD_S)
        out.append(dt * REFERENCE_S / statistics.median(probes.s[lo:hi]))
    return out
