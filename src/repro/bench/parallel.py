"""Parallel sweep engine with content-addressed result caching.

Every figure in EXPERIMENTS.md is a sweep over independent, deterministic
``(config, workload-params, seed, options)`` points — embarrassingly
parallel work the seed repo ran strictly sequentially.  This module
provides the three pieces that remove that serialization without
changing a single simulated number:

* :class:`PointTask` — a picklable, canonically-serializable description of
  one sweep point (config label + the workload's own params dataclass +
  seed + :class:`~repro.hpx_rt.runtime.RunOptions`), evaluated by the
  top-level :func:`evaluate_point` so it can cross a
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..hpx_rt.runtime import RunOptions
from .fft_bench import FftBenchParams, run_fft
from .latency import LatencyParams, run_latency
from .message_rate import MessageRateParams, run_message_rate
from .octotiger_bench import OctoTigerBenchParams, run_octotiger
from .serve_bench import ServeBenchParams, run_serve

__all__ = [
    "PointTask", "ResultCache", "ExecutionPolicy",
    "code_fingerprint", "evaluate_point", "run_points",
    "set_policy", "policy", "execution",
]

#: params type -> the ``run_*(config, params, seed=, options=)`` it feeds
RUNNERS: Dict[type, Callable[..., Any]] = {
    MessageRateParams: run_message_rate,
    LatencyParams: run_latency,
    OctoTigerBenchParams: run_octotiger,
    FftBenchParams: run_fft,
    ServeBenchParams: run_serve,
}

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
    """One independent sweep point: fully picklable, canonically hashable.

    ``params`` is the workload's own frozen params dataclass; its type
    picks the runner (:data:`RUNNERS`).
    """

    config: str                  #: parcelport configuration label
    params: Any                  #: e.g. MessageRateParams, ServeBenchParams
    seed: int
    options: RunOptions = RunOptions()

    def canonical(self) -> str:
        """Canonical JSON (sorted keys, fixed separators) for cache keys.

        Params, platform included, serialize by value; options list only
        what they switch on.
        """
        options = {k: v for k, v in asdict(self.options).items()
                   if v is not None}
        return json.dumps({"kind": type(self.params).__name__,
                           "config": self.config,
                           "params": asdict(self.params),
                           "seed": self.seed, "options": options},
                          sort_keys=True, separators=(",", ":"))


def evaluate_point(task: PointTask) -> Dict[str, float]:
    """Run one sweep point and return its flat metric dict.

    Top-level (and argument-picklable) so :class:`ProcessPoolExecutor`
    workers can execute it.
    """
    run = RUNNERS.get(type(task.params))
    if run is None:
        raise ValueError(
            f"unknown point kind {type(task.params).__name__!r}")
    res = run(task.config, task.params, seed=task.seed,
              options=task.options)
    return res if isinstance(res, dict) else res.as_dict()


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
