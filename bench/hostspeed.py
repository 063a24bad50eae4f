"""Host-speed probe: wall time rescaled to a reference speed.

A shared host runs the benchmark's one core at a speed that its
neighbours set: a fixed batch of exact arithmetic can take 1.6 times
longer in one minute than in the next, and the slow spells are too
frequent for a minimum or a median over repetitions to skip them.  The
slowdown is the same for all pure-Python integer and Fraction work,
so it can be measured while the batch runs and divided out.

:class:`SpeedProbe` times a region like a stopwatch.  While the region
runs, an interval timer interrupts it every ``PROBE_INTERVAL_S`` to
time a fixed loop of integer arithmetic (the probe, about 0.5 ms); one
probe also runs at each end.  Each slice of the region between two
probes is then rescaled by ``REFERENCE_PROBE_S`` over the mean of the
two probes around it.  Probe time itself is left out of both results:

- ``wall_s``: the region's wall time, probes excluded;
- ``norm_s``: the same time at the reference speed, the speed at which
  one probe takes ``REFERENCE_PROBE_S``.

A program change that does more or less work moves ``norm_s`` in the
same proportion as ``wall_s``; a change in host load does not.
"""

from __future__ import annotations

import signal
from math import gcd
from time import perf_counter

PROBE_INTERVAL_S = 0.05
# about the probe's fastest time on an Intel Xeon (2 vCPUs, CPython 3.11)
REFERENCE_PROBE_S = 0.0005
_PROBE_ITERATIONS = 750
_MODULUS = (1 << 256) - 189  # a 256-bit prime: multiplications of the size series uses


def probe_loop() -> int:
    """Fixed mix of small-integer rational sums and 256-bit products."""
    num, den, x = 0, 1, 0x9E3779B97F4A7C15F39CC0605CEDC834
    for i in range(1, _PROBE_ITERATIONS):
        a, b = i % 7 - 3, i % 11 + 1
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        x = x * x % _MODULUS
    return num + den + x


class Stopwatch:
    """Times one region: ``wall_s`` as measured, and ``norm_s`` equal to it."""

    wall_s = norm_s = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = self.norm_s = perf_counter() - self._start
        return False


class SpeedProbe(Stopwatch):
    """Times one region and rescales it to the reference speed (module doc)."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe

    def _probe(self, *_signal_args) -> None:
        start = perf_counter()
        probe_loop()
        self.probes.append((start, perf_counter()))

    def __enter__(self):
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        self.wall_s, self.norm_s = rescale(self.probes)
        return False


def rescale(probes: list[tuple[float, float]]) -> tuple[float, float]:
    """``(wall_s, norm_s)`` of the time between consecutive probes.

    The speed of a slice is read from the median of the (up to) four
    probes nearest to it, so that one probe slowed by a context switch
    does not distort the slices next to it.
    """
    took = [end - start for start, end in probes]
    wall = norm = 0.0
    for j in range(len(probes) - 1):
        span = probes[j + 1][0] - probes[j][1]
        wall += span
        norm += span * REFERENCE_PROBE_S / _median(took[max(j - 1, 0):j + 3])
    return wall, norm


def _median(values: list[float]) -> float:
    # not statistics.median: importing statistics imports fractions, whose
    # import time must stay inside the worker's timed ``import riordan.cli``
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
