"""Tests of the benchmark itself: ``pytest perf``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
PKG = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))

from sampler import (HOT_MODULES, LAYERS, StackSampler,  # noqa: E402
                     layer_of, layer_shares, module_name)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MODULES = [module_name(p.relative_to(PKG).as_posix())
           for p in sorted(PKG.rglob("*.py"))]


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perf" / "run.py"),
                           *args], stdout=subprocess.PIPE, text=True,
                          timeout=170)


def test_every_module_maps_to_exactly_one_layer():
    for module in MODULES:
        top = module.split(".", 1)[0]
        owners = [layer for layer, tops in LAYERS.items() if top in tops]
        assert len(owners) == 1, f"{module} belongs to {owners}"
    for hot in HOT_MODULES:
        assert layer_of(hot) is not None
        assert any(m == hot or m.startswith(hot + ".") for m in MODULES), \
            f"hot module {hot} no longer exists"


def test_sampler_charges_kernel_timeout_storm_to_sim():
    from repro.sim.core import Simulator

    def ticker(sim, n):
        for i in range(n):
            yield sim.timeout(0.5 + (i % 7) * 0.25)

    sampler = StackSampler(PKG)
    with sampler:
        for _ in range(3):
            sim = Simulator()
            for _ in range(20):
                sim.process(ticker(sim, 10_000))
            sim.run()
    shares = layer_shares(sampler.counts)
    assert sum(sampler.counts.values()) >= 50
    assert shares["sim"] >= 0.8
    assert sum(shares.values()) == pytest.approx(1.0)


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perf"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [w["name"] for w in BENCH["workloads"]]
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_smoke_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = run_bench(ROOT, "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    report = json.loads(out.read_text())
    assert report["gaps"] == []
    for w in BENCH["workloads"]:
        res = report["workloads"][w["name"]]
        for kind in ("end_to_end", "per_layer"):
            for m in BENCH[kind]:
                assert m["name"] in res[kind], (w["name"], m["name"])
        shares = [res["per_layer"][f"{layer}.self_share"]
                  for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert res["end_to_end"]["failed_frac"] == 0.0


def _copy_checkout(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(PERF, dest / "perf", ignore=shutil.ignore_patterns(
        "__pycache__", "out", "runs"))
    if with_sources:
        shutil.copytree(PKG, dest / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_golden_entry_fails_the_run(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    golden_path = tmp_path / "perf" / "golden.json"
    golden = json.loads(golden_path.read_text())
    entries = golden["7"]["msgrate_8b"]
    victim = next(pid for pid in entries if pid.endswith("/n500"))
    entries[victim] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    out = tmp_path / "report.json"
    proc = run_bench(tmp_path, "--smoke", "--workload", "msgrate_8b",
                     "--out", str(out))
    assert proc.returncode != 0
    res = json.loads(out.read_text())["workloads"]["msgrate_8b"]
    assert res["end_to_end"]["failed_frac"] > 0
    assert any(f["point"] == victim and "golden" in f["reason"]
               for f in res["failures"])


def test_without_simulator_sources_exits_nonzero_and_prints_no_result(
        tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "--workload", "msgrate_8b", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
