"""Generic parameter sweeps with JSON persistence.

The per-figure drivers cover the paper's sweeps; this utility is for the
open-ended exploration the library invites (the §7.2 questions): define a
grid of axes, run a measurement function over the cartesian product, save
and reload results, and pivot them into plot-ready series.

Example::

    spec = SweepSpec(axes={"config": ["mpi_i", "lci_psr_cq_pin_i"],
                           "size": [8, 16384]})
    result = run_sweep(lambda config, size, seed:
                       {"rate": measure(config, size, seed)}, spec)
    result.save("sweep.json")
    series = result.to_series(x="size", y="rate", group_by="config")
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .harness import Series
from .seeds import repeat_seeds

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian grid of named axes plus repetition control."""

    axes: Dict[str, Sequence[Any]]
    repeats: int = 1
    base_seed: int = 1000

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def points(self) -> List[Dict[str, Any]]:
        """All grid points as keyword dictionaries, in axis order."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    @property
    def size(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n * self.repeats


@dataclass
class SweepResult:
    """Rows of ``{**point, **measurement, "seed": ...}`` dictionaries."""

    axes: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"axes": self.axes, "rows": self.rows}, f, indent=1)

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        with open(path) as f:
            data = json.load(f)
        return cls(axes=data["axes"], rows=data["rows"])

    # -- querying ---------------------------------------------------------
    def filter(self, **match: Any) -> List[Dict[str, Any]]:
        return [r for r in self.rows
                if all(r.get(k) == v for k, v in match.items())]

    def metrics(self) -> List[str]:
        if not self.rows:
            return []
        skip = set(self.axes) | {"seed"}
        return sorted(k for k in self.rows[0] if k not in skip)

    def to_series(self, x: str, y: str,
                  group_by: Optional[str] = None) -> List[Series]:
        """Pivot rows into plot series, averaging over repetitions."""
        groups: Dict[Any, Dict[float, List[float]]] = {}
        for row in self.rows:
            g = row.get(group_by) if group_by else ""
            groups.setdefault(g, {}).setdefault(
                float(row[x]), []).append(float(row[y]))
        out = []
        for g, pts in sorted(groups.items(), key=lambda kv: str(kv[0])):
            s = Series(label=str(g) if group_by else y)
            for xv in sorted(pts):
                ys = pts[xv]
                s.xs.append(xv)
                s.ys.append(sum(ys) / len(ys))
                if len(ys) > 1:
                    mean = sum(ys) / len(ys)
                    var = sum((v - mean) ** 2 for v in ys) / len(ys)
                    s.yerr.append(var ** 0.5)
                else:
                    s.yerr.append(0.0)
            out.append(s)
        return out

    def __len__(self) -> int:
        return len(self.rows)


def run_sweep(fn: Callable[..., Dict[str, float]], spec: SweepSpec,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> SweepResult:
    """Run ``fn(**point, seed=...)`` over the whole grid, in grid order.

    ``fn`` must return a flat dict of metric name → value.  Each grid
    point runs ``spec.repeats`` times with distinct seeds.  Cells run in
    this process, so ``fn`` may be any callable (a closure included);
    grids that need fan-out across processes are
    :class:`~repro.bench.parallel.PointTask` lists for
    :func:`~repro.bench.parallel.run_points`.
    """
    result = SweepResult(axes=list(spec.axes))
    seeds = repeat_seeds(spec.repeats, base=spec.base_seed)
    for point in spec.points():
        for seed in seeds:
            row = dict(point)
            row["seed"] = seed
            for k, v in fn(**point, seed=seed).items():
                if k in row:
                    raise ValueError(
                        f"metric {k!r} collides with an axis")
                row[k] = v
            result.rows.append(row)
            if progress is not None:
                progress(len(result.rows), spec.size)
    return result
