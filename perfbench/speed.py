"""Machine-speed sampling, to express times in reference seconds.

On a shared box the speed of one core drifts by up to 2x within seconds:
other tenants contend for the core and its caches.  CPU time drifts with
it, so neither wall nor CPU time of one run is comparable with another.

While a SpeedProbe is active, a wall-clock timer interrupts the process
every INTERVAL seconds.  The handler runs a fixed interpreter loop, first
untimed (to warm the caches the workload evicted), then timed.  Over a
stretch of wall time T, the work done at reference speed is
T * mean(REF_PROBE_S / sample): the samples are evenly spaced in wall time
and each one gives the slowdown of its stretch.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.01
WARM_ITERS = 100
TIMED_ITERS = 400
REF_PROBE_S = 20e-6  # the timed loop's median on the 2-core reference box


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        x = 0
        for i in range(WARM_ITERS):
            x += i * i
        t0 = time.perf_counter()
        for i in range(TIMED_ITERS):
            x += i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per wall second over the samples taken since a mark."""
        window = self.samples[since:] or self.samples[-1:]  # shorter than INTERVAL: latest sample
        if not window:
            raise RuntimeError("no speed sample taken yet")
        return sum(REF_PROBE_S / s for s in window) / len(window)
