"""Host-speed probe: turns wall time into reference seconds.

On the machine the benchmark was tuned on (2 vCPUs on a shared host) each
vCPU runs in one of two speed states about 2x apart.  The state changes
within a second, independently per vCPU, and the share of time spent in
the slow state drifts from one quarter of an hour to the next, so a
wall-clock time mixes the program's cost with the host's state.

A ``Probe`` measures the state on the CPU that does the work, while it
does it.  Every ``INTERVAL_S`` a timer signal runs a fixed pure-Python
``Fraction`` chunk (no istrata code) in the working thread and records how
long it took.  Each stretch of wall time between two chunks is scaled by
``CHUNK_REF_S / chunk time``, averaged over the two chunks that bound it,
and the chunks' own time is left out.  The sum, in *reference seconds*,
is what the body would have taken on a CPU on which the chunk takes
``CHUNK_REF_S``: it does not move with the host's state, and a program
that does more work reads higher in proportion.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_S = 0.01
# The chunk's time in the fast state of the tuning machine.  A constant,
# never measured, so that figures of two commits compare.
CHUNK_REF_S = 0.0005


def _chunk():
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(2, 3)
    return acc


@dataclass(frozen=True)
class Measure:
    ref_s: float  # reference seconds of the probed body
    wall_s: float  # wall seconds of the body, probe chunks left out
    span_s: float  # wall seconds from the first chunk's start to the last one's end

    def __add__(self, other):
        return Measure(self.ref_s + other.ref_s, self.wall_s + other.wall_s,
                       self.span_s + other.span_s)


def reference(outer_s, inner):
    """(reference s, wall s) of an op that took ``outer_s`` wall seconds,
    of which the part ``inner`` (a ``Measure``) was probed.  The unprobed
    rest (process start-up around a probed child) is scaled at the probed
    part's mean speed; the probe's own chunks are left out.  Without a
    probed part the wall time is returned as both."""
    if inner is None or inner.wall_s <= 0:
        return outer_s, outer_s
    outside = outer_s - inner.span_s
    return inner.ref_s + outside * inner.ref_s / inner.wall_s, inner.wall_s + outside


class Probe:
    """Context manager; ``measure`` holds the ``Measure`` of its body.

    With ``enabled`` false it only times the body (reference seconds =
    wall seconds).  An enabled probe owns SIGALRM and the real interval
    timer, so only one may be active per process."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []  # (chunk start, chunk end)
        self.measure = None

    def _sample(self, *_):
        start = time.perf_counter()
        if self.enabled:
            _chunk()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self.samples = []
        self._sample()
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        pairs = list(zip(self.samples, self.samples[1:]))
        wall = sum(b[0] - a[1] for a, b in pairs)
        if self.enabled:
            ref = sum((b[0] - a[1]) * (CHUNK_REF_S / (a[1] - a[0]) + CHUNK_REF_S / (b[1] - b[0])) / 2
                      for a, b in pairs)
        else:
            ref = wall
        self.measure = Measure(ref, wall, self.samples[-1][1] - self.samples[0][0])
        return False
