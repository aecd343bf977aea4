"""Host speed samples, for rescaling timings to one fixed host speed.

The host this benchmark runs on is shared, and its speed for
interpreted code drifts by a quarter or more over tens of seconds. The
drift hits a fixed probe loop and the solver alike, so dividing a
timing by the probe times taken while it ran leaves the work. The
probe does what the scans' inner loops do: nested list indexing,
integer arithmetic and a running minimum.

``Sampler`` runs the probe every PERIOD_S seconds from a SIGALRM
handler while it is active, and keeps the handler's own time, which
callers subtract from what they timed. The handler touches no state
but its own, so the measured code computes exactly what it would
without it.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERS = 8000
# Probe time of the reference host speed; rescaled timings are seconds
# at this speed. It is about the probe's median on a 2-core x86-64 host
# running Python 3.11.
REF_PROBE_S = 0.002
PERIOD_S = 0.1

_TABLE = [[(i * 31 + j * 17) % 97 for j in range(64)] for i in range(64)]


def probe() -> float:
    """Seconds one fixed loop of list indexing and comparisons takes now."""
    m = _TABLE
    best = 1 << 30
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        row = m[i & 63]
        d = row[(i * 7) & 63] + row[(i * 13) & 63] - m[(i * 5) & 63][i & 63]
        if d < best:
            best = d
        acc += d
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Multiplier taking a timing made during ``samples`` to the reference speed."""
    return REF_PROBE_S / statistics.fmean(samples)


class Sampler:
    """Probes the host every PERIOD_S seconds while used as a context manager."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        dt = probe()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor_since(self, start: int) -> float:
        """Speed factor over the samples taken since ``len(samples)`` was ``start``;
        probes once more if none were."""
        taken = self.samples[start:]
        return speed_factor(taken if taken else [probe()])
