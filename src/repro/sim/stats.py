"""Lightweight statistics collection for simulated components.

Every layer (NIC, progress engine, parcelport, scheduler) owns a
:class:`StatSet`, so the benchmark harness can report paper-style breakdowns
(lock wait time, progress-call counts, messages by protocol) without the
components knowing about the harness.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

__all__ = ["StatSet", "TimeSeries", "percentile", "summarize"]


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches numpy's default ("linear") method so histogram metrics and
    ad-hoc report scripts agree on the same numbers.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    rank = (q / 100.0) * (len(vals) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return vals[lo]
    frac = rank - lo
    return vals[lo] * (1.0 - frac) + vals[hi] * frac


class TimeSeries:
    """Append-only (time, value) samples with summary helpers."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def record(self, t: float, v: float) -> None:
        self.samples.append((t, v))

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def mean(self) -> float:
        vals = self.values()
        return sum(vals) / len(vals) if vals else 0.0

    def max(self) -> float:
        vals = self.values()
        return max(vals) if vals else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the recorded values."""
        return percentile(self.values(), q)

    def p50(self) -> float:
        return self.percentile(50.0)

    def p90(self) -> float:
        return self.percentile(90.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def p999(self) -> float:
        """The 99.9th percentile — the serving layer's tail-SLO number.

        Same linear-interpolation semantics as every other percentile
        here: with fewer than 1001 samples it interpolates between the
        two largest order statistics and degenerates to :meth:`max` at
        ``n == 1`` (exact small-sample behavior pinned by tests).
        """
        return self.percentile(99.9)

    def __len__(self) -> int:
        return len(self.samples)


class StatSet:
    """A named bag of counters, accumulators and time series.

    The per-event sites (polls, queue pops, task and wire counts) update
    ``counters[key] += n`` and ``accum[key] += v`` directly, which is
    what :meth:`inc` and :meth:`add` do, minus the method call.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.counters: Dict[str, int] = defaultdict(int)
        self.accum: Dict[str, float] = defaultdict(float)
        self.series: Dict[str, TimeSeries] = defaultdict(TimeSeries)

    def inc(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def get(self, key: str, default: int = 0) -> int:
        """A counter's value without creating it (defaultdict-safe)."""
        return self.counters.get(key, default)

    def add(self, key: str, v: float) -> None:
        self.accum[key] += v

    def sample(self, key: str, t: float, v: float) -> None:
        self.series[key].record(t, v)

    def merge(self, other: "StatSet") -> None:
        for k, v in other.counters.items():
            self.counters[k] += v
        for k, v in other.accum.items():
            self.accum[k] += v
        for k, ts in other.series.items():
            self.series[k].samples.extend(ts.samples)

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update(self.counters)
        out.update(self.accum)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{k}={v}" for k, v in sorted(self.as_dict().items())]
        return f"<StatSet {self.name}: {', '.join(parts)}>"


def summarize(values: List[float]) -> Dict[str, float]:
    """mean/std/min/max of a sample list (population std, paper-style)."""
    if not values:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(var),
            "min": min(values), "max": max(values), "n": n}
