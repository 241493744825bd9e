"""The benchmark's workloads: simulation points and their result checks.

Each workload is a list of points.  A point is one call into the stable
surface of ``repro.bench`` -- ``run_message_rate`` / ``run_latency`` /
``run_octotiger`` / ``run_serve`` with ``(config, params, seed=)`` -- so
the benchmark keeps working while the code below that surface changes.
Points run one at a time, as a closed-loop generator: the next starts
when the previous returns.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``perf/README.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.bench import (LatencyParams, MessageRateParams,
                         OctoTigerBenchParams, ServeBenchParams, run_latency,
                         run_message_rate, run_octotiger, run_serve)


@dataclass(frozen=True)
class Point:
    """One simulation point: ``run(seed=...)`` returns its result and
    ``check(result)`` returns a reason when the result is wrong."""

    id: str
    run: Callable[..., Any]
    check: Callable[[Any], Optional[str]]


def digest(result: Any) -> str:
    """sha256 of the canonical JSON (exact float repr) of the numbers a
    ``run_*`` result reports."""
    numbers = result if isinstance(result, dict) else result.as_dict()
    text = json.dumps(numbers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _check_message_rate(r) -> Optional[str]:
    if r.failed_msgs:
        return f"{r.failed_msgs} messages failed"
    if not 0.0 < r.inject_time_us <= r.comm_time_us:
        return (f"inject {r.inject_time_us} us vs comm "
                f"{r.comm_time_us} us")
    return None


def _check_latency(r) -> Optional[str]:
    if r.failed_chains:
        return f"{r.failed_chains} ping-pong chains failed"
    if not r.total_time_us > 0.0:
        return f"total time {r.total_time_us} us"
    return None


def _check_octotiger(r) -> Optional[str]:
    if not r["steps_per_second"] > 0.0:
        return f"steps/s {r['steps_per_second']}"
    return None


def _check_serve(r) -> Optional[str]:
    if r.failed:
        return f"{r.failed} requests failed"
    accounted = (r.delivered + r.shed_requests + r.shed_responses
                 + r.in_flight)
    if r.offered <= 0 or accounted != r.offered:
        return f"offered {r.offered} but accounted {accounted}"
    return None


def _msgrate_8b(smoke: bool) -> List[Point]:
    # Fig 1-3 regime: per-message eager cost through parcelport ->
    # mpi_sim/lci_sim -> netsim; reliability, flow and apps are bypassed.
    p = MessageRateParams(msg_size=8, batch=50,
                          total_msgs=500 if smoke else 2500)
    return [Point(f"{cfg}/8B/n{p.total_msgs}",
                  functools.partial(run_message_rate, cfg, p),
                  _check_message_rate)
            for cfg in ("mpi_i", "mpi", "lci_psr_cq_pin_i", "lci_sr_sy_mt")]


def _latency_16k(smoke: bool) -> List[Point]:
    # Fig 9 regime: rendezvous/chunked path, closed-loop, latency-bound.
    p = LatencyParams(msg_size=16384, window=16, steps=5 if smoke else 30)
    return [Point(f"{cfg}/16K/w16/s{p.steps}",
                  functools.partial(run_latency, cfg, p), _check_latency)
            for cfg in ("mpi_i", "lci_psr_cq_pin_i")]


def _octotiger_l4(smoke: bool) -> List[Point]:
    # Fig 10/11 proxy: the most task/future/scheduler work and app
    # compute, the smallest kernel share.
    p = OctoTigerBenchParams(paper_level=4, n_steps=1,
                             n_localities=2 if smoke else 4)
    return [Point(f"{cfg}/l4/L{p.n_localities}",
                  functools.partial(run_octotiger, cfg, p), _check_octotiger)
            for cfg in ("mpi_i", "lci_psr_cq_pin_i")]


def _serve_knee(smoke: bool) -> List[Point]:
    # Open-loop RPC with reliability acks, credit flow control and
    # shedding on: each family at its knee, plus LCI past its knee so
    # requests are shed on every seed.  Poisson arrivals only: the
    # heavy-tailed bursty generator makes the simulated work of a point
    # vary ~3x between seeds, which no per-seed timing could absorb.
    horizon = 500.0 if smoke else 2000.0
    return [Point(f"{cfg}/{kps:g}k/poisson/h{horizon:g}",
                  functools.partial(run_serve, cfg, ServeBenchParams(
                      offered_kps=kps, horizon_us=horizon,
                      arrival="poisson")),
                  _check_serve)
            for cfg, kps in (("mpi", 100.0), ("lci_psr_cq_pin_i", 300.0),
                             ("lci_psr_cq_pin_i", 400.0))]


#: workload name -> its points (``smoke`` selects reduced sizes)
WORKLOADS: Dict[str, Callable[[bool], List[Point]]] = {
    "msgrate_8b": _msgrate_8b,
    "latency_16k": _latency_16k,
    "octotiger_l4": _octotiger_l4,
    "serve_knee": _serve_knee,
}
