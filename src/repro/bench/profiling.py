"""Profiling breakdowns: where does the (virtual) time go?

The paper repeatedly leans on profiling to explain results ("Profiling
results show that it spent the vast majority of time inside the MPI_Test
function, spinning on the blocking lock of the ucp_progress function").
This module produces the analogous breakdown from a finished simulation
run: lock waits, progress-engine activity, message census, worker time
split into compute vs communication-path cycles.
"""

from __future__ import annotations

from typing import Dict, List

from ..hpx_rt.runtime import HpxRuntime
from .reporting import format_table

__all__ = ["runtime_breakdown", "format_breakdown", "lock_report"]


def runtime_breakdown(rt: HpxRuntime) -> Dict[str, float]:
    """Aggregate accounting across all localities of a finished run."""
    out: Dict[str, float] = {
        "virtual_time_us": rt.now,
        "wire_msgs": rt.fabric.stats.counters.get("msgs", 0),
        "wire_bytes": rt.fabric.stats.accum.get("bytes", 0.0),
        "worker_cpu_us": 0.0,
        "worker_compute_us": 0.0,
        "worker_lock_wait_us": 0.0,
        "tasks_run": 0,
        "background_calls": 0,
        "parcels_sent": 0,
        "messages_sent": 0,
    }
    for loc in rt.localities:
        for w in loc.workers:
            out["worker_cpu_us"] += w.cpu_us
            out["worker_compute_us"] += w.stats.accum.get("compute_us", 0.0)
            out["worker_lock_wait_us"] += w.stats.accum.get(
                "lock_wait_us", 0.0)
            out["tasks_run"] += w.stats.counters.get("tasks_run", 0)
            out["background_calls"] += w.stats.counters.get(
                "background_calls", 0)
        layer = loc.parcel_layer
        if layer is not None:
            out["parcels_sent"] += layer.stats.counters.get(
                "parcels_sent", 0)
            out["messages_sent"] += layer.stats.counters.get(
                "messages_sent", 0)
        pp = loc.parcelport
        # backend-specific: the MPI big lock is the star of the paper
        mpi = getattr(pp, "mpi", None)
        if mpi is not None:
            out["mpi_progress_calls"] = out.get("mpi_progress_calls", 0) \
                + mpi.stats.counters.get("progress_calls", 0)
            out["mpi_lock_wait_us"] = out.get("mpi_lock_wait_us", 0.0) \
                + mpi.progress_lock.total_wait_us
            out["mpi_lock_acquisitions"] = \
                out.get("mpi_lock_acquisitions", 0) \
                + mpi.progress_lock.acquisitions
            out["mpi_unexpected_msgs"] = \
                out.get("mpi_unexpected_msgs", 0) \
                + mpi.stats.counters.get("unexpected_msgs", 0)
        devices = getattr(pp, "devices", None)
        if devices:
            # symmetric LCI-side accounting: the paper's §2.1 resources
            # (packet pool, completion queues, synchronizers) each get the
            # counters the MPI side gets for its big lock
            for dev in devices:
                out["lci_progress_calls"] = \
                    out.get("lci_progress_calls", 0) \
                    + dev.stats.counters.get("progress_calls", 0)
                out["lci_progress_contended"] = \
                    out.get("lci_progress_contended", 0) \
                    + dev.stats.counters.get("progress_contended", 0)
                out["lci_msgs_progressed"] = \
                    out.get("lci_msgs_progressed", 0) \
                    + dev.stats.counters.get("msgs_progressed", 0)
                pool = dev.pool
                out["lci_pool_acquires"] = \
                    out.get("lci_pool_acquires", 0) \
                    + pool.stats.counters.get("acquires", 0)
                out["lci_pool_exhaustions"] = \
                    out.get("lci_pool_exhaustions", 0) \
                    + pool.stats.counters.get("exhaustions", 0)
                out["lci_pool_squeezed"] = \
                    out.get("lci_pool_squeezed", 0) \
                    + pool.stats.counters.get("squeezed", 0)
                out["lci_pool_in_use"] = \
                    out.get("lci_pool_in_use", 0) + pool.in_use
                out["lci_pool_capacity"] = \
                    out.get("lci_pool_capacity", 0) + pool.capacity
        cqs = list(getattr(pp, "header_cqs", []) or [])
        comp_cq = getattr(pp, "comp_cq", None)
        if comp_cq is not None:
            cqs.append(comp_cq)
        for cq in cqs:
            out["lci_cq_signals"] = out.get("lci_cq_signals", 0) \
                + cq.stats.counters.get("signals", 0)
            out["lci_cq_pops"] = out.get("lci_cq_pops", 0) \
                + cq.stats.counters.get("pops", 0)
            out["lci_cq_empty_pops"] = out.get("lci_cq_empty_pops", 0) \
                + cq.stats.counters.get("empty_pops", 0)
            out["lci_cq_max_depth"] = max(out.get("lci_cq_max_depth", 0),
                                          cq.max_depth)
        sync_pending = getattr(pp, "sync_pending", None)
        if sync_pending is not None:
            out["lci_sync_pending"] = out.get("lci_sync_pending", 0) \
                + len(sync_pending)
    return out


def format_breakdown(breakdown: Dict[str, float]) -> str:
    """Paper-style profiling table, most interesting rows first."""
    t = max(breakdown.get("virtual_time_us", 0.0), 1e-9)
    rows: List[List[str]] = []

    def row(key: str, label: str, share_of_time: bool = False) -> None:
        if key not in breakdown:
            return
        v = breakdown[key]
        cell = f"{v:,.1f}" if isinstance(v, float) else f"{v:,}"
        extra = f"{100.0 * v / t:.1f}% of runtime" if share_of_time else ""
        rows.append([label, cell, extra])

    row("virtual_time_us", "virtual time (us)")
    row("worker_compute_us", "application compute (us)", True)
    row("worker_cpu_us", "communication-path cycles (us)", True)
    row("worker_lock_wait_us", "worker lock-wait (us)", True)
    row("mpi_lock_wait_us", "MPI progress-lock wait (us)", True)
    row("mpi_lock_acquisitions", "MPI progress-lock acquisitions")
    row("mpi_progress_calls", "MPI progress calls")
    row("mpi_unexpected_msgs", "MPI unexpected messages")
    row("lci_progress_calls", "LCI progress calls")
    row("lci_progress_contended", "LCI progress try-lock failures")
    row("lci_msgs_progressed", "LCI messages progressed")
    row("lci_pool_acquires", "LCI packet-pool acquires")
    row("lci_pool_exhaustions", "LCI packet-pool exhaustions")
    row("lci_pool_squeezed", "LCI packet-pool fault squeezes")
    row("lci_pool_in_use", "LCI packets in use (end of run)")
    row("lci_pool_capacity", "LCI packet-pool capacity")
    row("lci_cq_signals", "LCI completion-queue signals")
    row("lci_cq_pops", "LCI completion-queue pops")
    row("lci_cq_empty_pops", "LCI completion-queue empty pops")
    row("lci_cq_max_depth", "LCI completion-queue max depth")
    row("lci_sync_pending", "LCI synchronizers pending (end of run)")
    row("tasks_run", "tasks executed")
    row("background_calls", "background-work invocations")
    row("parcels_sent", "parcels sent")
    row("messages_sent", "HPX messages sent")
    row("wire_msgs", "wire messages")
    row("wire_bytes", "wire bytes")
    return format_table(rows, header=["metric", "value", "note"])


def lock_report(rt: HpxRuntime) -> str:
    """Per-lock contention summary across all localities."""
    rows: List[List[str]] = []
    for loc in rt.localities:
        locks = []
        pp = loc.parcelport
        mpi = getattr(pp, "mpi", None)
        if mpi is not None:
            locks.append(mpi.progress_lock)
        pending_lock = getattr(pp, "pending_lock", None)
        if pending_lock is not None:
            locks.append(pending_lock)
        sync_lock = getattr(pp, "sync_lock", None)
        if sync_lock is not None:
            locks.append(sync_lock)
        if loc.parcel_layer is not None:
            locks.append(loc.parcel_layer._cache_lock)
            locks.extend(loc.parcel_layer._queue_locks.values())
        for lk in locks:
            if lk.acquisitions == 0:
                continue
            rows.append([lk.name, f"{lk.acquisitions:,}",
                         f"{lk.total_wait_us:,.1f}",
                         f"{lk.total_wait_us / lk.acquisitions:.3f}",
                         f"{lk.max_queue}"])
    rows.sort(key=lambda r: -float(r[2].replace(",", "")))
    return format_table(rows, header=["lock", "acquisitions",
                                      "total wait (us)", "wait/acq (us)",
                                      "max queue"])
