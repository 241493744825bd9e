"""The ``repro-fig tune`` auto-tuner: successive halving over

``PPConfig`` x adaptive-parameter space.

Every search point is an ordinary sweep point evaluated through
:func:`repro.bench.parallel.run_points`, so the search inherits the
engine's whole contract: points fan out across ``--jobs`` processes,
results are deterministic functions of ``(config, params, seed, options)``,
and repeated points — within a search, across searches, or shared with a
figure regeneration — are content-addressed cache hits.

The search itself is classic successive halving: all candidates run at
the smallest budget, the top half advances to a doubled budget, and so on
until one rung remains at full budget.  The trajectory (every rung's
scores and survivors) is emitted as ``BENCH_tune.json`` (schema kind
``tune``, validated by :func:`validate_bench`), and the winner is compared
against the paper's best static configuration ``lci_psr_cq_pin_i`` at the
full budget.
"""

from __future__ import annotations

import json
import math
import os
import platform as _platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.fft_bench import FftBenchParams
from ..bench.message_rate import MessageRateParams
from ..bench.parallel import PointTask, policy, run_points
from ..bench.seeds import repeat_seeds
from ..bench.serve_bench import ServeBenchParams
from ..hpx_rt.runtime import RunOptions
from .policy import AdaptiveSpec

__all__ = ["run_tune", "validate_bench", "BASELINE_CONFIG", "ADAPT_VARIANTS",
           "WORKLOADS"]

#: schema tag stamped into BENCH_tune.json
BENCH_SCHEMA = "repro-bench/1"

#: the static config the tuned result must beat (the paper's overall winner)
BASELINE_CONFIG = "lci_psr_cq_pin_i"

#: named adaptive-parameter variants searched against every config;
#: ``None`` = adaptation off (the static config itself is a candidate)
ADAPT_VARIANTS: Dict[str, Optional[AdaptiveSpec]] = {
    "static": None,
    # Fixed aggregation window from t=0; controller may still retune it.
    "hold256": AdaptiveSpec(agg_hold_init=256),
    "hold1k": AdaptiveSpec(agg_hold_init=1024, agg_hold_max=16384),
    # Purely reactive: all knobs start at the config's values.
    "auto": AdaptiveSpec(),
}

#: configs crossed with the adaptive variants (the baseline is always
#: searched too, so "no change" is a reachable answer)
SEARCH_CONFIGS = ["lci_psr_cq_pin_i", "lci_psr_cq_pin", "lci_sr_cq_pin"]


#: workload name -> (budget -> params, metric key, quick budgets,
#: full budgets)
WORKLOADS = {
    "message_rate": (lambda budget: MessageRateParams(
                         msg_size=8, batch=100, total_msgs=budget),
                     "message_rate_kps",
                     [1000, 2000, 4000], [5000, 10000, 20000]),
    "fft": (lambda budget: FftBenchParams(n1=budget, n2=budget,
                                          n_localities=4),
            "points_per_second", [8, 16, 32], [16, 32, 64]),
    "serve": (lambda budget: ServeBenchParams(offered_kps=400.0,
                                              horizon_us=float(budget)),
              "goodput_kps",
              [500.0, 1000.0, 2000.0], [1000.0, 2000.0, 4000.0]),
}


def _candidates(configs: Sequence[str],
                variants: Dict[str, Optional[AdaptiveSpec]]
                ) -> List[Tuple[str, str, Optional[AdaptiveSpec]]]:
    """(name, config, adaptive spec) triples, deterministic order."""
    return [(config if spec is None else f"{config}+{vname}", config, spec)
            for config in configs for vname, spec in variants.items()]


def _tasks(params, candidates, seeds) -> List[PointTask]:
    """One rung's points: every candidate x seed (flat list)."""
    return [PointTask(config, params, seed, RunOptions(adapt=spec))
            for _name, config, spec in candidates for seed in seeds]


def _doc_header(repeats: int) -> Dict[str, Any]:
    return {
        "schema": BENCH_SCHEMA,
        "kind": "tune",
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count(),
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
    }


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Return the schema problems of a ``BENCH_tune.json`` document
    (empty = valid)."""
    errors: List[str] = []
    if doc.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema != {BENCH_SCHEMA!r}: {doc.get('schema')!r}")
    if doc.get("kind") != "tune":
        errors.append(f"kind != 'tune': {doc.get('kind')!r}")
    for key in ("python", "platform", "generated_utc", "repeats", "scale"):
        if key not in doc:
            errors.append(f"missing key {key!r}")
    for key in ("workload", "metric"):
        if not doc.get(key):
            errors.append(f"tune doc missing {key!r}")
    base = doc.get("baseline")
    if not isinstance(base, dict) or "config" not in base:
        errors.append("tune doc missing baseline.config")
    elif not isinstance(base.get("score"), (int, float)) \
            or base["score"] <= 0:
        errors.append(f"baseline: bad score={base.get('score')!r}")
    rungs = doc.get("rungs")
    if not rungs:
        errors.append("tune doc has no rungs")
    else:
        for i, rung in enumerate(rungs):
            cands = rung.get("candidates")
            if not cands:
                errors.append(f"rung {i}: no candidates")
                continue
            names = set()
            for c in cands:
                if "name" not in c or "config" not in c:
                    errors.append(f"rung {i}: candidate missing "
                                  f"name/config: {c!r}")
                    continue
                names.add(c["name"])
                if not isinstance(c.get("score"), (int, float)):
                    errors.append(f"rung {i}: candidate {c['name']}: "
                                  f"bad score={c.get('score')!r}")
            kept = rung.get("kept")
            if not isinstance(kept, list) or not kept:
                errors.append(f"rung {i}: bad kept={kept!r}")
            elif not set(kept) <= names:
                errors.append(f"rung {i}: kept names not a subset of "
                              f"candidates: {sorted(set(kept) - names)}")
    winner = doc.get("winner")
    if not isinstance(winner, dict) or "config" not in winner:
        errors.append("tune doc missing winner.config")
    else:
        for key in ("score", "improvement_pct"):
            if not isinstance(winner.get(key), (int, float)):
                errors.append(f"winner: bad {key}={winner.get(key)!r}")
    return errors


def run_tune(workload: Optional[str] = None, full: bool = False,
             out_dir: str = ".", repeats: Optional[int] = None,
             configs: Optional[Sequence[str]] = None,
             adapt_variants: Optional[Dict[str, Optional[AdaptiveSpec]]]
             = None,
             budgets: Optional[Sequence[Any]] = None) -> int:
    """Run the search, print the trajectory, write ``BENCH_tune.json``.

    Returns 0 when the emitted document validates (the *smoke* contract;
    whether the winner actually beats the baseline is recorded in
    ``winner.improvement_pct`` and asserted by CI on the committed
    artifact, not on every quick rerun).
    """
    workload = workload or "serve"
    if workload not in WORKLOADS:
        raise ValueError(f"unknown tune workload {workload!r} "
                         f"(choose from {sorted(WORKLOADS)})")
    make_params, metric, quick_budgets, full_budgets = WORKLOADS[workload]
    if budgets is None:
        budgets = full_budgets if full else quick_budgets
    repeats = repeats or (3 if full else 1)
    seeds = repeat_seeds(repeats)
    cands = _candidates(configs or SEARCH_CONFIGS,
                        adapt_variants or ADAPT_VARIANTS)

    t0 = time.perf_counter()
    doc = _doc_header(repeats)
    doc["scale"] = "full" if full else "smoke"
    doc["workload"] = workload
    doc["metric"] = metric
    rungs_doc: List[Dict[str, Any]] = []
    print(f"== auto-tune {workload} (metric {metric}, "
          f"{len(cands)} candidates, budgets {list(budgets)}) ==")

    survivors = list(cands)
    scored: List[Dict[str, Any]] = []
    for r, budget in enumerate(budgets):
        results = iter(run_points(_tasks(make_params(budget), survivors,
                                         seeds)))
        scored = []
        for name, config, spec in survivors:
            vals = [next(results)[metric] for _ in seeds]
            entry = {"name": name, "config": config,
                     "adapt": None if spec is None else spec.as_dict(),
                     "score": sum(vals) / len(vals)}
            scored.append(entry)
        # Deterministic ranking: score descending, name as tie-break.
        scored.sort(key=lambda c: (-c["score"], c["name"]))
        last = r == len(budgets) - 1
        n_keep = len(scored) if last else max(2, math.ceil(len(scored) / 2))
        kept = [c["name"] for c in scored[:n_keep]]
        rungs_doc.append({"budget": budget, "candidates": scored,
                          "kept": kept})
        print(f"  rung {r} (budget {budget}): "
              f"best {scored[0]['name']} = {scored[0]['score']:.1f}, "
              f"kept {len(kept)}/{len(scored)}")
        by_name = {cand[0]: cand for cand in survivors}
        survivors = [by_name[n] for n in kept]

    # Baseline at full budget (a cache hit if it survived the search).
    base_tasks = _tasks(make_params(budgets[-1]),
                        [(BASELINE_CONFIG, BASELINE_CONFIG, None)], seeds)
    base_vals = [res[metric] for res in run_points(base_tasks)]
    base_score = sum(base_vals) / len(base_vals)
    winner = scored[0]
    improvement = (winner["score"] / base_score - 1.0) * 100.0
    doc["baseline"] = {"config": BASELINE_CONFIG, "score": base_score}
    doc["rungs"] = rungs_doc
    doc["winner"] = {"name": winner["name"], "config": winner["config"],
                     "adapt": winner["adapt"], "score": winner["score"],
                     "improvement_pct": improvement}
    cache = policy().cache
    doc["cache"] = cache.stats() if cache is not None else {}
    print(f"  baseline {BASELINE_CONFIG} = {base_score:.1f}")
    print(f"  winner   {winner['name']} = {winner['score']:.1f} "
          f"({improvement:+.1f}%)")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    errors = validate_bench(doc)
    for e in errors:
        print(f"  INVALID BENCH_tune.json: {e}")
    path = out / "BENCH_tune.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {path}")
    print(f"[tune done in {time.perf_counter() - t0:.1f}s wall]")
    return 1 if errors else 0
