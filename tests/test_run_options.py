"""One ``RunOptions`` value carries everything a run switches on.

The contracts under test:

* every run entry point takes ``options=RunOptions()`` and no per-feature
  keyword, so the option list is declared once;
* an option that is set but never engages leaves a run's results exactly
  as they are without it — one identity matrix over the inert options and
  the message-rate, latency, FFT and serve workloads;
* the FFT and serve points own their flow control: options that also set
  it are refused, not silently overridden.
"""

import dataclasses
import functools
import inspect

import pytest

from repro import (FaultPlan, FlowControlPolicy, HpxRuntime, RunOptions,
                   make_runtime)
from repro.bench import (FftBenchParams, LatencyParams, MessageRateParams,
                         ServeBenchParams, run_fft, run_latency,
                         run_message_rate, run_octotiger, run_serve)

RUNS = (run_message_rate, run_latency, run_octotiger, run_fft, run_serve)

#: the six options, each declared once, as a RunOptions field
OPTION_NAMES = ("fault_plan", "retry_policy", "flow_policy", "trace",
                "adapt", "reliable")


def test_run_options_declares_the_six_options():
    assert tuple(f.name for f in dataclasses.fields(RunOptions)) \
        == OPTION_NAMES
    assert all(getattr(RunOptions(), name) is None for name in OPTION_NAMES)


@pytest.mark.parametrize("fn", RUNS + (make_runtime, HpxRuntime),
                         ids=lambda fn: fn.__name__)
def test_entry_points_take_options_and_no_option_keyword(fn):
    params = inspect.signature(fn).parameters
    assert params["options"].default == RunOptions()
    assert not set(OPTION_NAMES) & set(params)
    assert not any(p.kind is p.VAR_KEYWORD for p in params.values())


# ---------------------------------------------------------------------------
# the identity matrix: inert options x workloads
# ---------------------------------------------------------------------------
CONFIGS = ("lci_psr_cq_pin_i", "mpi_i", "mpi")

#: workload -> (run, params, seed, result fields compared exactly).  The
#: message-rate point is a fig1 point; the FFT point runs under the
#: fft_smoke flow knobs.
WORKLOADS = {
    "message_rate": (run_message_rate,
                     MessageRateParams(msg_size=8, batch=100,
                                       total_msgs=4000,
                                       inject_rate_kps=400.0),
                     1000, ("inject_time_us", "comm_time_us")),
    "latency": (run_latency, LatencyParams(msg_size=8, window=4, steps=10),
                5, ("total_time_us",)),
    "fft": (run_fft, FftBenchParams(n1=16, n2=16, n_localities=4,
                                    credit_window=4, max_backlog=8),
            1000, ("total_time_us", "checksum")),
    "serve": (run_serve, ServeBenchParams(offered_kps=200.0), 1000,
              ("offered", "delivered", "p99_us")),
}

#: options that are set but never engage on these points
INERT = {
    "zero_plan": RunOptions(fault_plan=FaultPlan.parse("drop=0,corrupt=0")),
    "trace_all": RunOptions(trace="all"),
    "flow": RunOptions(flow_policy=FlowControlPolicy()),
}

#: counters that show the flow machinery engaged
FLOW_ENGAGED = ("credit_stalls", "backlogged_sends", "puts_deferred",
                "parcels_shed", "pool_backoffs")

#: the FFT and serve points own their flow policy (see the refusal below)
CASES = [(workload, option) for workload in WORKLOADS for option in INERT
         if not (option == "flow" and workload in ("fft", "serve"))]


@functools.lru_cache(maxsize=None)
def _plain(workload, config):
    run, params, seed, _ = WORKLOADS[workload]
    return run(config, params, seed=seed)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload,option", CASES)
def test_inert_options_leave_results_unchanged(workload, option, config):
    run, params, seed, fields = WORKLOADS[workload]
    base = _plain(workload, config)
    res = run(config, params, seed=seed, options=INERT[option])
    for name in fields:
        assert getattr(res, name) == getattr(base, name), name
    assert res.as_dict() == base.as_dict()
    if option == "flow":
        assert not any(k in res.faults for k in FLOW_ENGAGED)
    if option == "trace_all":
        assert base.obs is None and res.obs is not None


# ---------------------------------------------------------------------------
# workloads that own their flow control refuse a second one
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("run,params,fields", [
    (run_fft, FftBenchParams(), "FftBenchParams.credit_window"),
    (run_serve, ServeBenchParams(), "ServeBenchParams.credit_window"),
], ids=["fft", "serve"])
@pytest.mark.parametrize("options", [
    RunOptions(flow_policy=FlowControlPolicy()),
    RunOptions(reliable=True),
    RunOptions(reliable=False),
], ids=["flow_policy", "reliable", "unreliable"])
def test_flow_owning_workloads_refuse_flow_options(run, params, fields,
                                                   options):
    with pytest.raises(ValueError, match=fields):
        run("mpi_i", params, seed=1, options=options)
