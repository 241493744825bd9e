"""Repetition harness: fold N repetitions of a point into mean/std.

The paper performs every experiment at least five times and plots mean and
standard deviation; drivers here do the same (with a configurable repeat
count, since DES runs are deterministic given a seed — repetitions vary the
seed, which perturbs workload jitter and tree refinement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..sim.stats import summarize

__all__ = ["Measurement", "fold", "Series"]


@dataclass
class Measurement:
    """Mean/std summary of one measured quantity over repetitions."""

    values: List[float]

    @property
    def mean(self) -> float:
        return summarize(self.values)["mean"]

    @property
    def std(self) -> float:
        return summarize(self.values)["std"]

    @property
    def n(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"{self.mean:.3g}±{self.std:.2g}"


def fold(results: Iterable[Dict[str, float]]) -> Dict[str, Measurement]:
    """Aggregate per-repetition result dicts key by key.

    The repetitions of a point run on the
    :func:`repro.bench.seeds.repeat_seeds` ladder; each key's values keep
    that order.
    """
    acc: Dict[str, List[float]] = {}
    for out in results:
        for k, v in out.items():
            acc.setdefault(k, []).append(float(v))
    return {k: Measurement(v) for k, v in acc.items()}


@dataclass
class Series:
    """One plotted line: label + x values + y measurements."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)
    yerr: List[float] = field(default_factory=list)

    def add(self, x: float, m: "Measurement | float") -> None:
        self.xs.append(float(x))
        if isinstance(m, Measurement):
            self.ys.append(m.mean)
            self.yerr.append(m.std)
        else:
            self.ys.append(float(m))
            self.yerr.append(0.0)

    @property
    def peak(self) -> float:
        return max(self.ys) if self.ys else 0.0

    def y_at(self, x: float) -> float:
        """The y value at the x closest to ``x``."""
        if not self.xs:
            raise ValueError("empty series")
        idx = min(range(len(self.xs)), key=lambda i: abs(self.xs[i] - x))
        return self.ys[idx]
