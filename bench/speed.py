"""How fast this machine runs right now, against the reference machine.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by 20-100% in phases that last from seconds to
minutes; a fixed loop runs slower or faster for everyone in the process at
once.  ``Gauge.slowdown`` times a fixed reference kernel that owes nothing
to starpinch and returns how many times longer it took than on the
reference machine.  ``Gauge.timed`` times one operation and also reports
it at the reference machine's speed: its wall time multiplied by the mean
of 1/slowdown over the samples taken just before it, during it (a timer
signal every ``INTERVAL_S``) and just after it.  A change to starpinch
moves that time as it moves wall time; a phase of the host mostly does
not.

The kernel has three parts whose mix follows the workloads': a pure-Python
loop (interpreter overhead), small-array NumPy (broadcast differences,
``arccos``, batched ``eigh``, like node evaluation and the sphere fit) and
a stream through buffers larger than one core's L2 cache (like the
Hausdorff pass's temporaries).  The slowdown is the geometric mean of the
three parts' ratios, so no one part dominates.  A sample takes about
25 ms; its time is left out of the operation it interrupts.  The stream's
two 4 MB buffers are allocated once, so sampling adds a constant 8 MB to
the process's resident memory.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# seconds each part takes on the reference machine (2-core Intel Xeon
# virtual machine, 1 BLAS thread) in a fast phase, medians of 300 samples;
# they fix the scale of the reported times and are never changed
REFERENCE_S = {"python": 0.0078, "numpy": 0.0077, "stream": 0.0087}
INTERVAL_S = 0.5
FRESH_S = 0.05


@dataclass
class Span:
    wall: float = 0.0    # seconds, samples taken during the span left out
    scaled: float = 0.0  # the same at the reference machine's speed


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.standard_normal((1024, 4))
        self.centers = rng.standard_normal((32, 4))
        forms = rng.standard_normal((256, 3, 3))
        self.forms = forms + forms.transpose(0, 2, 1)
        self.block = rng.standard_normal((4 << 20) // 8)
        self.scratch = np.empty_like(self.block)
        for part in REFERENCE_S:  # first calls pay one-off costs (LAPACK, page faults)
            self._time(part)
        self.samples = []    # every slowdown measured, kept for the run record
        self.sampled_s = 0.0  # time spent sampling from the timer signal
        self._sampled_at = -math.inf
        self._busy = False

    def slowdown(self) -> float:
        """Kernel time now over its time on the reference machine."""
        self._busy = True
        try:
            ratios = [self._time(part) / ref for part, ref in REFERENCE_S.items()]
        finally:
            self._busy = False
        value = math.exp(sum(map(math.log, ratios)) / len(ratios))
        self.samples.append(value)
        self._sampled_at = perf_counter()
        return value

    @contextmanager
    def timed(self):
        """Time the body; sample before it, every INTERVAL_S during it and after it."""
        span = Span()
        if perf_counter() - self._sampled_at > FRESH_S:  # else the last span's end sample
            self.slowdown()
        first = len(self.samples) - 1
        sampled = self.sampled_s
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            end = perf_counter()
            span.wall = end - start - (self.sampled_s - sampled)
            self.slowdown()
            during = self.samples[first:]
            span.scaled = span.wall * sum(1.0 / s for s in during) / len(during)

    def _tick(self, signum, frame):
        if self._busy:
            return
        start = perf_counter()
        self.slowdown()
        self.sampled_s += perf_counter() - start

    def _time(self, part: str) -> float:
        start = perf_counter()
        getattr(self, "_" + part)()
        return perf_counter() - start

    @staticmethod
    def _python():
        total = 0
        for i in range(100000):
            total += i * i % 7
        return total

    def _numpy(self):
        for _ in range(5):
            diff = self.points[None, :, :] - self.centers[:, None, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            np.arccos(np.clip(dist / 10.0, -1.0, 1.0)).max()
            np.linalg.eigh(self.forms)

    def _stream(self):
        total = 0.0
        for _ in range(10):
            np.subtract(self.block, 0.5, out=self.scratch)
            np.multiply(self.scratch, self.scratch, out=self.scratch)
            total += self.scratch.sum()
        return total


@contextmanager
def wall_timed():
    """``Gauge.timed`` without a gauge: the scaled time is the wall time."""
    span = Span()
    start = perf_counter()
    try:
        yield span
    finally:
        span.wall = span.scaled = perf_counter() - start
