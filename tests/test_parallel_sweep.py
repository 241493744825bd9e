"""Parallel sweep engine + result cache (repro.bench.parallel).

The contracts under test:

* ``run_points`` with ``jobs=N`` returns results **element-wise identical**
  to a sequential run (every point is an independent deterministic
  simulation keyed by its own seed).
* The content-addressed cache: a hit skips the simulation entirely, a
  changed parameter / seed / option / code fingerprint misses,
  ``no_cache=True`` bypasses a populated cache.
* ``run_sweep`` runs its cells in process, whatever the policy.
"""

import dataclasses

import pytest

import repro.bench.parallel as parallel
from repro import FaultPlan, FlowControlPolicy, RunOptions
from repro.bench.latency import LatencyParams, run_latency
from repro.bench.message_rate import MessageRateParams, run_message_rate
from repro.bench.parallel import (ExecutionPolicy, PointTask, ResultCache,
                                  code_fingerprint, evaluate_point,
                                  execution, run_points, set_policy)
from repro.bench.sweep import SweepSpec, run_sweep
from repro.hpx_rt.platform import EXPANSE, ROSTAM


def small_tasks(n_seeds=2, total=300):
    return [PointTask(cfg, MessageRateParams(msg_size=8, batch=50,
                                             total_msgs=total,
                                             inject_rate_kps=rate),
                      1000 + i * 7919)
            for cfg in ("mpi_i", "lci_psr_cq_pin_i")
            for rate in (100.0, None)
            for i in range(n_seeds)]


# ---------------------------------------------------------------------------
# task descriptors
# ---------------------------------------------------------------------------
def test_point_task_canonical_is_stable_and_sorted():
    t = PointTask("mpi_i", MessageRateParams(msg_size=8, batch=50,
                                             total_msgs=100), 3)
    c = t.canonical()
    assert c == t.canonical()
    assert c.index('"config"') < c.index('"kind"') < c.index('"params"')
    assert '"kind":"MessageRateParams"' in c
    assert '"name":"expanse"' in c
    assert '"options":{}' in c


def test_point_task_serializes_platform_by_value():
    """A modified preset keys, and runs, as itself: the canonical JSON
    holds the platform's fields, not its name."""
    params = LatencyParams(msg_size=8, window=4, steps=5)
    fast = params.with_(platform=ROSTAM.with_(
        network=ROSTAM.network.with_(wire_latency_us=0.5)))
    t = PointTask("mpi_i", params.with_(platform=ROSTAM), 1)
    t_fast = PointTask("mpi_i", fast, 1)
    assert '"name":"rostam"' in t.canonical()
    assert t.canonical() != t_fast.canonical()
    assert evaluate_point(t_fast) == run_latency("mpi_i", fast,
                                                 seed=1).as_dict()
    assert evaluate_point(t_fast) != evaluate_point(t)


def test_evaluate_point_matches_direct_run():
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=300,
                               inject_rate_kps=None, platform=EXPANSE)
    direct = run_message_rate("mpi_i", params, seed=5).as_dict()
    assert evaluate_point(PointTask("mpi_i", params, 5)) == direct


def test_evaluate_point_rejects_unknown_params_type():
    with pytest.raises(ValueError, match="unknown point kind 'dict'"):
        evaluate_point(PointTask("mpi_i", {}, 0))


def test_options_cross_the_process_boundary():
    """A fault plan and a flow policy ride in the point to the worker
    processes and into its cache key."""
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=300)
    options = RunOptions(fault_plan=FaultPlan.parse("drop=0.05"),
                         flow_policy=FlowControlPolicy(credit_window=4))
    tasks = [PointTask(cfg, params, seed, options)
             for cfg in ("mpi_i", "lci_psr_cq_pin_i") for seed in (1, 2)]
    seq = run_points(tasks, jobs=1, no_cache=True)
    assert run_points(tasks, jobs=2, no_cache=True) == seq
    assert all(r["fault.retransmits"] > 0 for r in seq)
    assert seq[0] == run_message_rate("mpi_i", params, seed=1,
                                      options=options).as_dict()
    plain = dataclasses.replace(tasks[0], options=RunOptions())
    assert plain.canonical() != tasks[0].canonical()


# ---------------------------------------------------------------------------
# parallel == sequential
# ---------------------------------------------------------------------------
def test_jobs2_results_element_wise_identical_to_sequential():
    tasks = small_tasks()
    seq = run_points(tasks, jobs=1, no_cache=True)
    par = run_points(tasks, jobs=2, no_cache=True)
    assert len(seq) == len(tasks)
    assert seq == par


def test_run_sweep_runs_a_closure_under_a_parallel_policy():
    """``run_sweep`` once took its width from the process-wide policy and
    pickled ``fn`` to worker processes: a closure, as
    examples/design_space_sweep.py passes, failed under ``--jobs 2``."""
    scale = 3.0

    def fn(x, seed):
        return {"y": x * scale}

    with execution(jobs=2):
        result = run_sweep(fn, SweepSpec(axes={"x": [1, 2]}, repeats=2))
    assert [r["y"] for r in result.rows] == [3.0, 3.0, 6.0, 6.0]
    assert [r["seed"] for r in result.rows[:2]] == [1000, 8919]


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
def test_cache_roundtrip_and_hit_skips_simulation(tmp_path, monkeypatch):
    tasks = small_tasks(n_seeds=1)
    cache = ResultCache(tmp_path)
    first = run_points(tasks, jobs=1, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": len(tasks),
                             "stores": len(tasks)}

    def boom(task):
        raise AssertionError("cache hit must not re-simulate")

    monkeypatch.setattr(parallel, "evaluate_point", boom)
    second = run_points(tasks, jobs=1, cache=cache)
    assert second == first
    assert cache.hits == len(tasks)


def test_changed_param_and_seed_miss(tmp_path):
    cache = ResultCache(tmp_path)
    base = small_tasks(n_seeds=1)[0]
    cache.put(base, {"x": 1.0})
    assert cache.get(base) == {"x": 1.0}
    other_seed = dataclasses.replace(base, seed=base.seed + 1)
    other_param = dataclasses.replace(
        base, params=base.params.with_(total_msgs=999))
    other_options = dataclasses.replace(
        base, options=RunOptions(trace="parcel"))
    assert cache.get(other_seed) is None
    assert cache.get(other_param) is None
    assert cache.get(other_options) is None


def test_changed_code_fingerprint_misses(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    task = small_tasks(n_seeds=1)[0]
    cache.put(task, {"x": 2.0})
    assert cache.get(task) == {"x": 2.0}
    monkeypatch.setattr(parallel, "_FINGERPRINT", "0" * 64)
    assert cache.get(task) is None


def test_no_cache_bypasses_populated_cache(tmp_path, monkeypatch):
    tasks = small_tasks(n_seeds=1)[:1]
    cache = ResultCache(tmp_path)
    cache.put(tasks[0], {"sentinel": 1.0})
    monkeypatch.setattr(parallel, "evaluate_point",
                        lambda task: {"fresh": 2.0})
    with execution(jobs=1, cache=cache):
        cached = run_points(tasks)
        assert cached == [{"sentinel": 1.0}]
        fresh = run_points(tasks, no_cache=True)
        assert fresh == [{"fresh": 2.0}]
    assert cache.stores == 1  # no_cache run must not write either


def test_cache_ignores_corrupt_and_wrong_schema_entries(tmp_path):
    cache = ResultCache(tmp_path)
    task = small_tasks(n_seeds=1)[0]
    path = cache._path(cache.key(task))
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(task) is None
    path.write_text('{"schema": "repro-cache/0", "result": {"x": 1}}')
    assert cache.get(task) is None


def test_code_fingerprint_is_hex_and_cached():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0


def test_cache_misses_after_nested_module_edit(tmp_path, monkeypatch):
    """Editing a source file in a sub-package must invalidate every key."""
    import shutil
    from pathlib import Path

    import repro

    task = PointTask("mpi", MessageRateParams(msg_size=8, batch=8,
                                              total_msgs=16), 1)
    cache = ResultCache(tmp_path / "cache")
    try:
        key_before = cache.key(task)
        cache.put(task, {"x": 1.0})
        assert cache.get(task) == {"x": 1.0}

        # Clone the package tree, touch ONLY a nested module, repoint
        # the fingerprint at the clone.
        pkg_root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, pkg_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__",
                            str(pkg_root / "__init__.py"))
        code_fingerprint(refresh=True)
        assert cache.key(task) == key_before  # identical clone, same key

        target = pkg_root / "apps" / "serve" / "driver.py"
        target.write_text(target.read_text() + "\n# touched\n")
        code_fingerprint(refresh=True)
        assert cache.key(task) != key_before
        assert cache.get(task) is None  # the old entry is unreachable
    finally:
        monkeypatch.undo()
        code_fingerprint(refresh=True)  # restore the process-wide digest


# ---------------------------------------------------------------------------
# execution policy
# ---------------------------------------------------------------------------
def test_set_policy_validates_and_execution_restores(tmp_path):
    prev = parallel.policy()
    with execution(jobs=3, cache=tmp_path) as pol:
        assert parallel.policy() is pol
        assert pol.jobs == 3 and pol.cache is not None
        with pytest.raises(ValueError, match="jobs"):
            set_policy(jobs=0)
    assert parallel.policy() is prev


def test_repeat_seed_ladder_pinned():
    from repro.bench.seeds import REPEAT_BASE, REPEAT_STEP, repeat_seeds

    # The historical inline sequence every committed figure was
    # generated with: 1000 + i*7919.  Pinned so the migration in
    # bench/sweep.py stays bit-exact.
    assert (REPEAT_BASE, REPEAT_STEP) == (1000, 7919)
    assert repeat_seeds(3) == [1000, 8919, 16838]
    assert repeat_seeds(1) == [1000]
    # sweep.py's per-spec ladder: base_seed + rep*7919
    assert repeat_seeds(3, base=42) == [42, 7961, 15880]
    with pytest.raises(ValueError, match="at least one"):
        repeat_seeds(0)


def test_sweep_cells_use_the_ladder():
    spec = SweepSpec(axes={"x": [1, 2]}, repeats=2, base_seed=500)
    result = run_sweep(lambda x, seed: {"y": float(seed)}, spec)
    assert [row["seed"] for row in result.rows] == \
        [500 + rep * 7919 for _ in (1, 2) for rep in range(2)]


def test_env_var_supplies_default_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(parallel.CACHE_ENV, str(tmp_path / "envcache"))
    with execution(jobs=1, cache=None):
        pol = set_policy()
        assert pol.cache is not None
        assert pol.cache.root == tmp_path / "envcache"
        pol2 = set_policy(no_cache=True)
        assert pol2.cache is None
