"""Parallel sweep engine with content-addressed result caching.

Every figure in EXPERIMENTS.md is a sweep over independent, deterministic
``(config, workload-params, seed)`` points — embarrassingly parallel work
the seed repo ran strictly sequentially.  This module provides the three
pieces that remove that serialization without changing a single simulated
number:

* :class:`PointTask` — a picklable, canonically-serializable description of
  one sweep point (workload kind + config label + primitive params + seed),
  evaluated by the top-level :func:`evaluate_point` so it can cross a
  ``ProcessPoolExecutor`` boundary.
* :class:`ResultCache` — a content-addressed on-disk cache.  The key is
  ``sha256(code fingerprint ‖ canonical task JSON)`` where the code
  fingerprint hashes every ``repro`` source file, so re-running a figure
  after an *unrelated* edit outside ``src/repro`` is a cache hit while any
  change to the simulator code invalidates everything.
* :func:`run_points` — evaluates a task list under the active
  :class:`ExecutionPolicy` (``--jobs N`` fans misses across worker
  processes; results always return in input order, so parallel output is
  element-wise identical to sequential).

The figure drivers in :mod:`repro.bench.figures` route all paper sweeps
through :func:`run_points`; the CLI knobs are ``--jobs N``, ``--cache DIR``
and ``--no-cache`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..hpx_rt.platform import platform_by_name

__all__ = [
    "PointTask", "ResultCache", "ExecutionPolicy",
    "code_fingerprint", "evaluate_point", "run_points",
    "message_rate_task", "latency_task", "octotiger_task", "fft_task",
    "serve_task",
    "set_policy", "policy", "execution",
]

#: environment variable consulted for a default cache directory
CACHE_ENV = "REPRO_CACHE_DIR"

#: on-disk cache entry schema tag
CACHE_SCHEMA = "repro-cache/1"


# ---------------------------------------------------------------------------
# code fingerprint
# ---------------------------------------------------------------------------
_FINGERPRINT: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Cached per process; any edit under ``src/repro`` changes the digest and
    therefore every cache key derived from it.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        import repro
        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


# ---------------------------------------------------------------------------
# sweep points
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointTask:
    """One independent sweep point: fully picklable, canonically hashable."""

    kind: str                    #: "message_rate" | "latency" | "octotiger"
    config: str                  #: parcelport configuration label
    params: Dict[str, Any]       #: primitive workload parameters
    seed: int

    def canonical(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) for cache keys."""
        return json.dumps({"kind": self.kind, "config": self.config,
                           "params": self.params, "seed": self.seed},
                          sort_keys=True, separators=(",", ":"))


def _platform_name(platform) -> str:
    """The name a sweep point stores for ``platform``.

    :func:`evaluate_point` maps the name back to the preset, so anything
    but an unmodified preset would silently run (and be cached) as the
    preset of the same name; refuse it instead.
    """
    try:
        preset = platform_by_name(platform.name)
    except KeyError:
        preset = None
    if platform != preset:
        raise ValueError(
            f"platform {platform.name!r} is not an unmodified preset; "
            f"sweep points serialize platforms by name")
    return platform.name


def message_rate_task(config: str, *, msg_size: int, batch: int,
                      total_msgs: int, inject_rate_kps: Optional[float],
                      platform, seed: int,
                      adapt: Optional[Dict[str, Any]] = None,
                      max_events: int = 30_000_000) -> PointTask:
    params = {"msg_size": msg_size, "batch": batch,
              "total_msgs": total_msgs,
              "inject_rate_kps": inject_rate_kps,
              "platform": _platform_name(platform),
              "max_events": max_events}
    if adapt is not None:
        # Key appears only when adaptation is on, so every pre-existing
        # cache key (and its cached result) stays valid.
        params["adapt"] = dict(adapt)
    return PointTask("message_rate", config, params, seed)


def latency_task(config: str, *, msg_size: int, window: int, steps: int,
                 platform, seed: int,
                 max_events: int = 20_000_000) -> PointTask:
    return PointTask("latency", config,
                     {"msg_size": msg_size, "window": window,
                      "steps": steps, "platform": _platform_name(platform),
                      "max_events": max_events}, seed)


def octotiger_task(config: str, *, platform, n_localities: int,
                   paper_level: int, n_steps: int, seed: int,
                   max_events: int = 60_000_000) -> PointTask:
    return PointTask("octotiger", config,
                     {"platform": _platform_name(platform),
                      "n_localities": n_localities,
                      "paper_level": paper_level, "n_steps": n_steps,
                      "max_events": max_events}, seed)


def fft_task(config: str, *, n1: int, n2: int, n_localities: int,
             platform, seed: int, iterations: int = 1,
             fragment: bool = True, credit_window: int = 0,
             max_backlog: int = 0,
             adapt: Optional[Dict[str, Any]] = None,
             max_events: int = 20_000_000) -> PointTask:
    params = {"n1": n1, "n2": n2, "n_localities": n_localities,
              "iterations": iterations, "fragment": fragment,
              "credit_window": credit_window,
              "max_backlog": max_backlog,
              "platform": _platform_name(platform),
              "max_events": max_events}
    if adapt is not None:
        params["adapt"] = dict(adapt)
    return PointTask("fft", config, params, seed)


def serve_task(config: str, *, offered_kps: float, horizon_us: float,
               n_localities: int, platform, seed: int,
               arrival: str = "poisson", slo_us: float = 200.0,
               drain_us: float = 2000.0, n_clients: int = 1_000_000,
               credit_window: int = 8, max_backlog: int = 16,
               max_queued_parcels: int = 64,
               adapt: Optional[Dict[str, Any]] = None,
               max_events: int = 30_000_000) -> PointTask:
    params = {"offered_kps": offered_kps, "horizon_us": horizon_us,
              "n_localities": n_localities, "arrival": arrival,
              "slo_us": slo_us, "drain_us": drain_us,
              "n_clients": n_clients,
              "credit_window": credit_window,
              "max_backlog": max_backlog,
              "max_queued_parcels": max_queued_parcels,
              "platform": _platform_name(platform),
              "max_events": max_events}
    if adapt is not None:
        params["adapt"] = dict(adapt)
    return PointTask("serve", config, params, seed)


def evaluate_point(task: PointTask) -> Dict[str, float]:
    """Run one sweep point and return its flat metric dict.

    Top-level (and argument-picklable) so :class:`ProcessPoolExecutor`
    workers can execute it.
    """
    p = dict(task.params)
    if "platform" in p:
        try:
            p["platform"] = platform_by_name(p["platform"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    def _adapt_spec():
        if "adapt" not in p:
            return None
        from ..adapt import AdaptiveSpec
        return AdaptiveSpec.from_dict(p["adapt"])

    if task.kind == "message_rate":
        from .message_rate import MessageRateParams, run_message_rate
        params = MessageRateParams(
            msg_size=p["msg_size"], batch=p["batch"],
            total_msgs=p["total_msgs"],
            inject_rate_kps=p["inject_rate_kps"],
            platform=p["platform"],
            max_events=p["max_events"])
        return run_message_rate(task.config, params,
                                seed=task.seed,
                                adapt=_adapt_spec()).as_dict()
    if task.kind == "latency":
        from .latency import LatencyParams, run_latency
        params = LatencyParams(
            msg_size=p["msg_size"], window=p["window"], steps=p["steps"],
            platform=p["platform"], max_events=p["max_events"])
        return run_latency(task.config, params, seed=task.seed).as_dict()
    if task.kind == "fft":
        from .fft_bench import FftBenchParams, run_fft
        params = FftBenchParams(
            n1=p["n1"], n2=p["n2"], n_localities=p["n_localities"],
            iterations=p["iterations"], fragment=p["fragment"],
            credit_window=p["credit_window"], max_backlog=p["max_backlog"],
            platform=p["platform"], max_events=p["max_events"])
        return run_fft(task.config, params, seed=task.seed,
                       adapt=_adapt_spec()).as_dict()
    if task.kind == "serve":
        from .serve_bench import ServeBenchParams, run_serve
        params = ServeBenchParams(
            offered_kps=p["offered_kps"], horizon_us=p["horizon_us"],
            n_localities=p["n_localities"], arrival=p["arrival"],
            slo_us=p["slo_us"], drain_us=p["drain_us"],
            n_clients=p["n_clients"],
            credit_window=p["credit_window"],
            max_backlog=p["max_backlog"],
            max_queued_parcels=p["max_queued_parcels"],
            platform=p["platform"], max_events=p["max_events"])
        return run_serve(task.config, params, seed=task.seed,
                         adapt=_adapt_spec()).as_dict()
    if task.kind == "octotiger":
        from .octotiger_bench import OctoTigerBenchParams, run_octotiger
        params = OctoTigerBenchParams(
            platform=p["platform"],
            n_localities=p["n_localities"],
            paper_level=p["paper_level"], n_steps=p["n_steps"],
            max_events=p["max_events"])
        return run_octotiger(task.config, params, seed=task.seed)
    raise ValueError(f"unknown point kind {task.kind!r}")


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------
class ResultCache:
    """Content-addressed cache of sweep-point results.

    Entry key = ``sha256(code_fingerprint ‖ task.canonical())``; the entry
    file records the schema tag, the key's ingredients (for debuggability)
    and the result dict.  A changed parameter, seed, or any edit to the
    ``repro`` sources produces a different key — stale hits are impossible
    by construction, so there is no expiry logic.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, task: PointTask) -> str:
        h = hashlib.sha256()
        h.update(code_fingerprint().encode())
        h.update(b"\0")
        h.update(task.canonical().encode())
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, task: PointTask) -> Optional[Dict[str, float]]:
        path = self._path(self.key(task))
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, task: PointTask, result: Dict[str, float]) -> None:
        key = self.key(task)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"schema": CACHE_SCHEMA, "key": key,
                       "fingerprint": code_fingerprint(),
                       "task": json.loads(task.canonical()),
                       "result": result}, fh, indent=1)
        os.replace(tmp, path)
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


# ---------------------------------------------------------------------------
# execution policy (what the CLI's --jobs/--cache/--no-cache configure)
# ---------------------------------------------------------------------------
@dataclass
class ExecutionPolicy:
    """How sweep points are evaluated: fan-out width + result cache."""

    jobs: int = 1
    cache: Optional[ResultCache] = None


_POLICY = ExecutionPolicy()


def policy() -> ExecutionPolicy:
    """The active execution policy."""
    return _POLICY


def set_policy(jobs: Optional[int] = None,
               cache_dir: "str | Path | None" = None,
               no_cache: bool = False) -> ExecutionPolicy:
    """Configure the process-wide execution policy.

    ``cache_dir=None`` falls back to the ``REPRO_CACHE_DIR`` environment
    variable; ``no_cache=True`` disables caching regardless of both.
    """
    global _POLICY
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
        _POLICY.jobs = jobs
    if no_cache:
        _POLICY.cache = None
    elif cache_dir is not None:
        _POLICY.cache = ResultCache(cache_dir)
    elif _POLICY.cache is None and os.environ.get(CACHE_ENV):
        _POLICY.cache = ResultCache(os.environ[CACHE_ENV])
    return _POLICY


@contextmanager
def execution(jobs: int = 1, cache: "ResultCache | str | Path | None" = None
              ) -> Iterator[ExecutionPolicy]:
    """Temporarily swap the execution policy (used by tests and drivers)."""
    global _POLICY
    prev = _POLICY
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    _POLICY = ExecutionPolicy(jobs=jobs, cache=cache)
    try:
        yield _POLICY
    finally:
        _POLICY = prev


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
def run_points(tasks: Sequence[PointTask],
               jobs: Optional[int] = None,
               cache: "ResultCache | None" = None,
               no_cache: bool = False,
               progress: Optional[Callable[[int, int], None]] = None
               ) -> List[Dict[str, float]]:
    """Evaluate sweep points; results are returned **in input order**.

    Cache hits are resolved first; remaining misses run sequentially in
    process (``jobs == 1``) or fan out over a :class:`ProcessPoolExecutor`
    (``jobs > 1``).  Because every point is an independent deterministic
    simulation keyed by its own seed, the output is element-wise identical
    whatever the fan-out width — asserted in
    ``tests/test_parallel_sweep.py``.
    """
    pol = _POLICY
    if jobs is None:
        jobs = pol.jobs
    if cache is None and not no_cache:
        cache = pol.cache
    if no_cache:
        cache = None

    results: List[Optional[Dict[str, float]]] = [None] * len(tasks)
    miss_idx: List[int] = []
    if cache is not None:
        for i, task in enumerate(tasks):
            hit = cache.get(task)
            if hit is not None:
                results[i] = hit
            else:
                miss_idx.append(i)
    else:
        miss_idx = list(range(len(tasks)))

    done = len(tasks) - len(miss_idx)
    if progress is not None and done:
        progress(done, len(tasks))

    if jobs > 1 and len(miss_idx) > 1:
        chunk = max(1, len(miss_idx) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=min(jobs, len(miss_idx))) as ex:
            for i, result in zip(miss_idx,
                                 ex.map(evaluate_point,
                                        [tasks[i] for i in miss_idx],
                                        chunksize=chunk)):
                results[i] = result
                if cache is not None:
                    cache.put(tasks[i], result)
                done += 1
                if progress is not None:
                    progress(done, len(tasks))
    else:
        for i in miss_idx:
            result = evaluate_point(tasks[i])
            results[i] = result
            if cache is not None:
                cache.put(tasks[i], result)
            done += 1
            if progress is not None:
                progress(done, len(tasks))
    return results  # type: ignore[return-value]
