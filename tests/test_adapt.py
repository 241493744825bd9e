"""Adaptive-policy controller + auto-tuner tests (pytest -m adapt).

Three contracts:

* **Byte-identity when off** — a runtime whose options leave ``adapt``
  unset must produce exactly the results it produced before the subsystem
  existed, across fault/flow/trace feature combinations (the committed
  ``results/fig1.txt`` diff in CI is the end-to-end half of this).
* **Determinism when on** — an adaptive run is a pure function of
  ``(config, params, seed, options)``: rerunning it, fanning it across
  worker processes, or replaying it through a warm cache all yield the
  identical result dict, controller counters included.
* **The tuner emits a valid artifact** — ``run_tune`` writes a
  ``BENCH_tune.json`` that passes ``validate_bench``, and the committed
  artifact records a tuned config that beats the paper's best static
  configuration.
"""

import json
from pathlib import Path

import pytest

from dataclasses import replace

from repro import FaultPlan, FlowControlPolicy, RunOptions, make_runtime
from repro.adapt import AdaptiveSpec
from repro.bench.message_rate import MessageRateParams, run_message_rate
from repro.bench.parallel import (PointTask, evaluate_point, execution,
                                  run_points)
from repro.hpx_rt.platform import EXPANSE

pytestmark = pytest.mark.adapt

P_SMALL = MessageRateParams(msg_size=8, batch=10, total_msgs=200,
                            inject_rate_kps=None, platform=EXPANSE)


# ---------------------------------------------------------------------------
# AdaptiveSpec validation + round-trip
# ---------------------------------------------------------------------------
def test_spec_defaults_valid():
    AdaptiveSpec()


@pytest.mark.parametrize("kw", [
    {"interval_us": 0.0},
    {"agg_hold_init": -1},
    {"agg_hold_start": 512, "agg_hold_max": 256},
    {"backlog_low": 9, "backlog_high": 8},
    {"contention_low": 0.9, "contention_high": 0.5},
    {"dwell_ticks": 0},
    {"step": 1.0},
])
def test_spec_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        AdaptiveSpec(**kw)


def test_spec_dict_roundtrip():
    spec = AdaptiveSpec(agg_hold_init=1024, switch_progress=False,
                        dwell_ticks=3)
    assert AdaptiveSpec.from_dict(spec.as_dict()) == spec


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        AdaptiveSpec.from_dict({"interval_us": 50.0, "bogus": 1})


# ---------------------------------------------------------------------------
# byte-identity when off
# ---------------------------------------------------------------------------
FEATURE_COMBOS = [
    RunOptions(),
    RunOptions(fault_plan=FaultPlan.parse("drop=0.05")),
    RunOptions(flow_policy=FlowControlPolicy()),
    RunOptions(trace="parcel"),
    RunOptions(fault_plan=FaultPlan.parse("drop=0.02,corrupt=0.01"),
               flow_policy=FlowControlPolicy()),
]


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "lci_psr_cq_pin",
                                    "mpi"])
def test_adaptive_off_identity(config):
    """With ``adapt`` unset the result dict is identical to a run that
    never mentions the subsystem, for every feature combination — and an
    adaptive run in between leaks no state into later plain runs."""
    for options in FEATURE_COMBOS:
        before = run_message_rate(config, P_SMALL, seed=5,
                                  options=options).as_dict()
        assert not any(k.startswith("adapt.") for k in before)
        # An adaptive run on the same config must not perturb anything.
        run_message_rate(config, P_SMALL, seed=5, options=replace(
            options, trace=None, adapt=AdaptiveSpec()))
        after = run_message_rate(config, P_SMALL, seed=5,
                                 options=options).as_dict()
        assert after == before


def test_adaptive_off_runtime_has_no_controller():
    rt = make_runtime("lci", platform=EXPANSE, n_localities=2, seed=1)
    rt.boot()
    try:
        assert rt.adapt is None
        for loc in rt.localities:
            assert loc.parcelport.adapt is None
    finally:
        rt.shutdown()


# ---------------------------------------------------------------------------
# determinism when on
# ---------------------------------------------------------------------------
def test_adaptive_run_deterministic():
    spec = AdaptiveSpec(agg_hold_init=512)
    a = run_message_rate("lci_psr_cq_pin", P_SMALL, seed=9,
                         options=RunOptions(adapt=spec)).as_dict()
    b = run_message_rate("lci_psr_cq_pin", P_SMALL, seed=9,
                         options=RunOptions(adapt=spec)).as_dict()
    assert a == b
    assert a["adapt.ticks"] > 0


def _adapt_tasks():
    options = RunOptions(adapt=AdaptiveSpec(agg_hold_init=512))
    return [PointTask("lci_psr_cq_pin", P_SMALL, s, options) for s in (3, 4)]


def test_adaptive_jobs_invariance():
    seq = [evaluate_point(t) for t in _adapt_tasks()]
    with execution(jobs=2):
        par = run_points(_adapt_tasks())
    assert par == seq


def test_adaptive_warm_cache_invariance(tmp_path):
    with execution(cache=tmp_path / "c") as pol:
        cold = run_points(_adapt_tasks())
        assert pol.cache.stats()["misses"] == 2
        warm = run_points(_adapt_tasks())
        assert warm == cold
        assert pol.cache.stats()["hits"] == 2
    assert cold == [evaluate_point(t) for t in _adapt_tasks()]


def test_adapt_in_cache_key_only_when_on(tmp_path):
    """A plain task's cache key does not mention the subsystem, and an
    adaptive task never collides with its plain twin."""
    plain = PointTask("lci", P_SMALL, 1)
    on = PointTask("lci", P_SMALL, 1, RunOptions(adapt=AdaptiveSpec()))
    assert "adapt" not in plain.canonical()
    assert '"adapt":{' in on.canonical()
    assert plain.canonical() != on.canonical()


# ---------------------------------------------------------------------------
# the controller actually controls
# ---------------------------------------------------------------------------
def test_controller_pins_worker_progress_under_contention():
    """On the worker-progress config the controller detects progress-lock
    contention and flips to a pinned engine — the adaptive run must beat
    the static one."""
    p = MessageRateParams(msg_size=8, batch=100, total_msgs=2000,
                          inject_rate_kps=None, platform=EXPANSE)
    plain = run_message_rate("lci_psr_cq_mt_i", p, seed=1)
    tuned = run_message_rate("lci_psr_cq_mt_i", p, seed=1,
                             options=RunOptions(adapt=AdaptiveSpec()))
    assert tuned.adapt["retune.progress_pinned"] >= 1
    assert tuned.adapt["progress_pinned_final"] == 1.0
    assert tuned.message_rate_kps > plain.message_rate_kps * 1.5


def test_controller_inert_on_best_static_config():
    """On the paper's winner the signals stay in band: zero retunes and
    the exact static schedule (identical rate, not merely close)."""
    p = MessageRateParams(msg_size=8, batch=100, total_msgs=2000,
                          inject_rate_kps=None, platform=EXPANSE)
    plain = run_message_rate("lci_psr_cq_pin_i", p, seed=1)
    tuned = run_message_rate("lci_psr_cq_pin_i", p, seed=1,
                             options=RunOptions(adapt=AdaptiveSpec()))
    assert tuned.adapt["retunes"] == 0.0
    assert tuned.message_rate_kps == plain.message_rate_kps


def test_aggregation_hold_engages_and_flushes():
    spec = AdaptiveSpec(agg_hold_init=4096)
    r = run_message_rate("lci_psr_cq_pin", P_SMALL, seed=2,
                         options=RunOptions(adapt=spec))
    assert r.adapt["agg_hold_final"] >= 0
    # Every message still arrives: holds delay pumps, never drop them.
    assert r.message_rate_kps > 0


# ---------------------------------------------------------------------------
# the auto-tuner
# ---------------------------------------------------------------------------
def test_run_tune_smoke(tmp_path):
    from repro.adapt.tuner import run_tune
    rc = run_tune(workload="message_rate", out_dir=str(tmp_path),
                  configs=["lci_psr_cq_pin_i", "lci_psr_cq_mt_i"],
                  adapt_variants={"static": None, "auto": AdaptiveSpec()},
                  budgets=[200, 400])
    assert rc == 0
    doc = json.loads((tmp_path / "BENCH_tune.json").read_text())
    assert doc["kind"] == "tune"
    assert doc["baseline"]["config"] == "lci_psr_cq_pin_i"
    assert len(doc["rungs"]) == 2
    names = {c["name"] for c in doc["rungs"][0]["candidates"]}
    assert names == {"lci_psr_cq_pin_i", "lci_psr_cq_pin_i+auto",
                     "lci_psr_cq_mt_i", "lci_psr_cq_mt_i+auto"}
    assert doc["winner"]["score"] > 0
    from repro.adapt.tuner import validate_bench
    assert validate_bench(doc) == []


COMMITTED_TUNE = Path(__file__).resolve().parent.parent / "BENCH_tune.json"


def test_committed_tune_artifact_beats_baseline():
    """The checked-in BENCH_tune.json must validate and must record a
    tuned configuration that beats ``lci_psr_cq_pin_i``."""
    doc = json.loads(COMMITTED_TUNE.read_text())
    from repro.adapt.tuner import validate_bench
    assert validate_bench(doc) == []
    assert doc["winner"]["improvement_pct"] > 0
    assert doc["baseline"]["config"] == "lci_psr_cq_pin_i"


@pytest.mark.parametrize("breaker, error", [
    (lambda d: d.update(schema="repro-bench/0"),
     "schema != 'repro-bench/1': 'repro-bench/0'"),
    (lambda d: d.update(kind="models"), "kind != 'tune': 'models'"),
    (lambda d: d["baseline"].pop("config"),
     "tune doc missing baseline.config"),
    (lambda d: d["rungs"][0]["kept"].append("mpi_i+nope"),
     "rung 0: kept names not a subset of candidates: ['mpi_i+nope']"),
    (lambda d: d["winner"].update(improvement_pct="68%"),
     "winner: bad improvement_pct='68%'"),
], ids=["schema", "kind", "baseline_config", "kept", "improvement_pct"])
def test_validate_bench_reports_each_broken_field(breaker, error):
    """One broken field of the committed artifact gives exactly its error."""
    from repro.adapt.tuner import validate_bench
    doc = json.loads(COMMITTED_TUNE.read_text())
    breaker(doc)
    assert validate_bench(doc) == [error]
