"""Runtime capture, boundary timers and deterministic layer counters.

:class:`RuntimeProbe` patches :class:`repro.hpx_rt.runtime.HpxRuntime`
while it is entered.  It keeps every runtime that boots, so counters can
be read after the ``run_*`` call that built it returns, and it times the
runtime's public entry points (construction, ``boot`` and ``run_until``).
The counters come from ``runtime_breakdown(rt)`` and
``rt.fault_summary()``; a source that fails to read leaves its counters
missing instead of failing the point.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: metric -> ``runtime_breakdown`` key
BREAKDOWN = {
    "sim.virtual_us": "virtual_time_us",
    "netsim.wire_msgs": "wire_msgs",
    "netsim.wire_bytes": "wire_bytes",
    "mpi_sim.progress_calls": "mpi_progress_calls",
    "mpi_sim.lock_acquisitions": "mpi_lock_acquisitions",
    "mpi_sim.lock_wait_us": "mpi_lock_wait_us",
    "mpi_sim.unexpected_msgs": "mpi_unexpected_msgs",
    "lci_sim.progress_calls": "lci_progress_calls",
    "lci_sim.progress_contended": "lci_progress_contended",
    "lci_sim.msgs_progressed": "lci_msgs_progressed",
    "lci_sim.pool_acquires": "lci_pool_acquires",
    "lci_sim.pool_exhaustions": "lci_pool_exhaustions",
    "lci_sim.cq_pops": "lci_cq_pops",
    "lci_sim.cq_empty_pops": "lci_cq_empty_pops",
    "parcelport.polls": "background_calls",
    "hpx_rt.tasks_run": "tasks_run",
    "hpx_rt.parcels_sent": "parcels_sent",
    "hpx_rt.messages_sent": "messages_sent",
    "hpx_rt.worker_cpu_us": "worker_cpu_us",
    "hpx_rt.worker_compute_us": "worker_compute_us",
    "hpx_rt.worker_lock_wait_us": "worker_lock_wait_us",
}

#: metric -> ``fault_summary`` key (the summary omits zero counters)
SUMMARY = {
    "parcelport.retransmits": "retransmits",
    "parcelport.dup_deliveries": "dup_deliveries",
    "parcelport.acks_received": "acks_received",
    "parcelport.credit_stalls": "credit_stalls",
    "parcelport.backlogged_sends": "backlogged_sends",
    "parcelport.backlog_refusals": "backlog_refusals",
    "parcelport.eager_fallbacks": "eager_fallbacks",
    "hpx_rt.parcels_shed": "parcels_shed",
}

#: ratio metric -> (numerator, denominator), both summed over the points
RATIOS = {
    "lci_sim.progress_yield": ("lci_sim.msgs_progressed",
                               "lci_sim.progress_calls"),
    "parcelport.poll_yield": ("parcelport.useful_polls", "parcelport.polls"),
    "hpx_rt.parcels_per_message": ("hpx_rt.parcels_sent",
                                   "hpx_rt.messages_sent"),
}

TIMERS = ("hpx_rt.construct_s", "hpx_rt.boot_s", "hpx_rt.run_until_s")


def _breakdown(rt) -> Dict[str, float]:
    from repro.bench.profiling import runtime_breakdown
    bd = runtime_breakdown(rt)
    return {m: bd[k] for m, k in BREAKDOWN.items() if k in bd}


def _summary(rt) -> Dict[str, float]:
    fs = rt.fault_summary()
    return {m: fs.get(k, 0) for m, k in SUMMARY.items()}


def _useful_polls(rt) -> Dict[str, float]:
    return {"parcelport.useful_polls": sum(
        w.stats.counters.get("background_useful", 0)
        for loc in rt.localities for w in loc.workers)}


def _events(rt) -> Dict[str, float]:
    return {"sim.events": rt.sim.event_count}


_SOURCES: Tuple[Callable[[Any], Dict[str, float]], ...] = (
    _events, _breakdown, _summary, _useful_polls)


def read_counters(rt) -> Tuple[Dict[str, float], List[str]]:
    """Counters of one finished runtime, plus one error line per source
    that failed to read."""
    out: Dict[str, float] = {}
    errors: List[str] = []
    for source in _SOURCES:
        try:
            out.update(source(rt))
        except Exception as exc:  # a renamed field must not fail the point
            errors.append(f"{source.__name__}: {type(exc).__name__}: {exc}")
    return out, errors


def combine(per_point: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum counters over the points of one rep and derive the ratios."""
    total: Dict[str, float] = {}
    for counters in per_point:
        for k, v in counters.items():
            total[k] = total.get(k, 0) + v
    for name, (num, den) in RATIOS.items():
        if num in total and den in total:
            total[name] = total[num] / total[den] if total[den] else 0.0
    total.pop("parcelport.useful_polls", None)
    return total


class RuntimeProbe:
    """Context manager that captures booted runtimes and times the
    runtime's public entry points.  :meth:`take` hands over what was
    captured since the last call."""

    def __init__(self):
        self._runtimes: List[Any] = []
        self._times = dict.fromkeys(TIMERS, 0.0)
        self._saved: Dict[str, Any] = {}

    def __enter__(self) -> "RuntimeProbe":
        from repro.hpx_rt.runtime import HpxRuntime
        self._cls = HpxRuntime
        init, boot, run_until = (HpxRuntime.__init__, HpxRuntime.boot,
                                 HpxRuntime.run_until)
        self._saved = {"__init__": init, "boot": boot,
                       "run_until": run_until}
        times, runtimes = self._times, self._runtimes
        clock = time.perf_counter

        def timed_init(rt, *args, **kw):
            t0 = clock()
            try:
                init(rt, *args, **kw)
            finally:
                times["hpx_rt.construct_s"] += clock() - t0

        def timed_boot(rt):
            t0 = clock()
            try:
                boot(rt)
            finally:
                times["hpx_rt.boot_s"] += clock() - t0
            runtimes.append(rt)

        def timed_run_until(rt, *args, **kw):
            # run_until boots an unbooted runtime; that part is boot time
            t0, boot0 = clock(), times["hpx_rt.boot_s"]
            try:
                return run_until(rt, *args, **kw)
            finally:
                times["hpx_rt.run_until_s"] += (
                    clock() - t0 - (times["hpx_rt.boot_s"] - boot0))

        HpxRuntime.__init__ = timed_init
        HpxRuntime.boot = timed_boot
        HpxRuntime.run_until = timed_run_until
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(self._cls, name, fn)

    def take(self) -> Tuple[List[Any], Dict[str, float]]:
        runtimes = list(self._runtimes)
        times = dict(self._times)
        self._runtimes.clear()
        self._times.update(dict.fromkeys(TIMERS, 0.0))
        return runtimes, times
