"""Smoke tests: every example script runs to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    path = os.path.join(EXAMPLES, name)
    proc = subprocess.run([sys.executable, path, *args],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "OK" in out
    assert "virtual microseconds" in out


def test_message_rate_study_small():
    out = run_example("message_rate_study.py", "--total", "400")
    assert "best configuration" in out
    assert "lci" in out


def test_latency_study_small():
    out = run_example("latency_study.py", "--steps", "5")
    assert "mpi_i / lci latency ratio" in out


def test_octotiger_scaling_small():
    out = run_example("octotiger_scaling.py", "--platform", "rostam",
                      "--nodes", "2", "--steps", "1")
    assert "lci/mpi" in out


def test_custom_parcelport_config():
    out = run_example("custom_parcelport_config.py")
    assert "eager threshold" in out
    assert "rendezvous" in out


def test_profiling_study_small():
    out = run_example("profiling_study.py", "--nodes", "2")
    assert "MPI progress-lock wait" in out
    assert "LCI try-lock contention" in out


def test_design_space_sweep_small(tmp_path):
    out = run_example("design_space_sweep.py", "--total", "500",
                      "--out", str(tmp_path / "s.json"))
    assert "device replication" in out
    assert "saved + reloaded" in out
