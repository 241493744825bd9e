"""Import layering: a run loads only the code it executes.

The message-rate and latency paths draw no random number and run no
application, so a fresh interpreter that runs a point of each must not
have imported numpy, ``multiprocessing``, any application or adaptation
module, or the optional drivers and exporters.  The packages that load
their re-exports on first access must still list and resolve every name
in their ``__all__``.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: packages a message-rate or latency run must not import, nor anything
#: under them
FORBIDDEN_TREES = ("numpy", "multiprocessing", "repro.apps", "repro.adapt")

#: single modules a message-rate or latency run must not import
FORBIDDEN_MODULES = (
    "repro.hpx_rt.collectives",
    "repro.obs.chrome_trace", "repro.obs.critical_path",
    "repro.obs.metrics",
    "repro.bench.figures", "repro.bench.parallel", "repro.bench.sweep",
    "repro.bench.validation",
)

LAZY_PACKAGES = ("repro.bench", "repro.apps", "repro.obs", "repro.hpx_rt")


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter on ``src`` and return the JSON
    it prints."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_message_rate_and_latency_load_only_the_communication_core():
    loaded = run_fresh("""
        import json, sys
        from repro.bench import (LatencyParams, MessageRateParams,
                                 run_latency, run_message_rate)
        for cfg in ("mpi_i", "lci_psr_cq_pin_i"):
            r = run_message_rate(cfg, MessageRateParams(
                msg_size=8, batch=10, total_msgs=100), seed=7)
            assert r.comm_time_us > 0.0
            r = run_latency(cfg, LatencyParams(
                msg_size=16384, window=2, steps=2), seed=7)
            assert r.total_time_us > 0.0
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "repro.bench.message_rate" in loaded
    assert "repro.bench.latency" in loaded
    bad = [m for m in loaded
           if m in FORBIDDEN_MODULES
           or any(m == t or m.startswith(t + ".") for t in FORBIDDEN_TREES)]
    roots = [m for m in bad if m.rpartition(".")[0] not in bad]
    assert not bad, f"imported by a message-rate/latency run: {roots}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_lists_and_resolves_all_of_all(package):
    missing = run_fresh(f"""
        import importlib, json
        pkg = importlib.import_module({package!r})
        listed = set(dir(pkg))
        for name in pkg.__all__:
            getattr(pkg, name)
        assert not hasattr(pkg, "no_such_name")
        print(json.dumps([n for n in pkg.__all__ if n not in listed]))
    """)
    assert missing == []
