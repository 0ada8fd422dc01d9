"""Machine-speed sampling, to take the shared host's speed swings out of
the end-to-end times.

On a shared host the CPU's speed can change by half or more within
seconds and stay changed for minutes, which moves every wall time with
it. `Sampler` measures that speed while the work runs, in the process
that runs it: an interval timer interrupts the main thread every
`period` seconds and times one fixed calibration chunk of Python
arithmetic. The chunk touches neither liedeg nor numpy, so a change to
either does not change it, and this module imports only the standard
library, so a set-up subprocess can start it before importing anything
it measures.

`scaled(wall, chunks)` is `wall` minus the chunks' own time, times
REFERENCE_CHUNK_S over the mean chunk time: the seconds the same work
would take on a machine that runs the chunk in REFERENCE_CHUNK_S. The
chunks sample the interval evenly in time, so their mean is the
interval's mean slowness. REFERENCE_CHUNK_S is a fixed scale, not a
measurement: about the chunk's time on a 2-vCPU x86-64 cloud host in
its faster state, so that scaled times there read close to wall times.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_CHUNK_S = 0.0002
CHUNK_STEPS = 3000
FALLBACK_CHUNKS = 10


def chunk() -> float:
    """Seconds one calibration chunk takes now."""
    t0 = perf_counter()
    s = 0
    for i in range(CHUNK_STEPS):
        s += (i * 7) % 5
    return perf_counter() - t0


class Sampler:
    """Times a calibration chunk every `period` seconds of wall time
    while active (a context manager, main thread only)."""

    def __init__(self, period: float):
        self.period = period
        self.chunks: list[float] = []

    def _tick(self, signum, frame):
        self.chunks.append(chunk())

    def __enter__(self):
        self.chunks = []
        chunk()  # warm
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scaled(wall: float, chunks: list[float]) -> float:
    """`wall`, which includes the timed `chunks`, without the chunks' time
    and at the reference speed."""
    own = wall - sum(chunks)
    chunks = chunks or [chunk() for _ in range(FALLBACK_CHUNKS)]  # under one period
    return own * REFERENCE_CHUNK_S / statistics.mean(chunks)
