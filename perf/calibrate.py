"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares its host with other tenants, and their load can
slow it by a third for minutes at a time (seen on the 2-vCPU host of
``perf/runs``).  Medians absorb short spikes but not such stretches.  So
each run times this loop between points and scales its host times by
:func:`speed_factor`, the square root of ``REF_S / median(loop time)``:
reported times read roughly as seconds on a host where the loop takes
``REF_S``, which is its calm median on the host the recorded runs came
from.  The loop is pure Python, imports
nothing from ``repro`` and mimics the simulator's mix (a heap of slotted
events, generator resumption, dict updates), so a change to the
simulator never moves it, while a neighbour's load moves both alike.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: events of :func:`reference_loop`; ``REF_S`` holds for this size only
REF_EVENTS = 60_000
#: calm median of :func:`reference_seconds` on the recording host
REF_S = 0.055


class _Ev:
    __slots__ = ("t", "key", "gen")

    def __init__(self, t: float, key: int, gen):
        self.t = t
        self.key = key
        self.gen = gen

    def __lt__(self, other: "_Ev") -> bool:
        return self.t < other.t


def _accumulator():
    total = 0
    while True:
        total += yield total


def reference_loop() -> int:
    """Run ``REF_EVENTS`` events of a tiny event loop; returns a
    checksum."""
    gens = [_accumulator() for _ in range(64)]
    heap = []
    for key, gen in enumerate(gens):
        next(gen)
        heapq.heappush(heap, _Ev(key * 0.5, key, gen))
    counts = {}
    checksum = 0
    for i in range(REF_EVENTS):
        ev = heapq.heappop(heap)
        checksum ^= ev.gen.send(i & 7)
        counts[ev.key] = counts.get(ev.key, 0) + 1
        heapq.heappush(heap, _Ev(ev.t + 1.0 + (i % 5) * 0.25, ev.key,
                                 ev.gen))
    return checksum


def reference_seconds() -> float:
    """Wall seconds of one :func:`reference_loop`."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Multiply host seconds by this to express them at ``REF_S`` speed.

    The correction is the square root of the loop's slowdown, not all of
    it: neighbour load slows this small loop more than most of the
    simulator.  Over 20 runs per workload on the recording host
    (``perf/runs/noisy-hours.json``), a workload's event rate fell as the
    loop's slowdown to the power 0.37 (``octotiger_l4``) to 0.98
    (``latency_16k``), and of the powers tried, 0.5 kept the largest
    run-to-run spread of any workload lowest.
    """
    return (REF_S / statistics.median(samples)) ** 0.5
