"""FROZEN seed-model hot paths + the reference-mode swap harness.

PR "model-layer fast paths" rewired the stack's hottest interpreter paths
(bare-float CPU charges, slim lock/atomic grant records, indexed MPI tag
matching, the C-level caller meter) under the kernel's bit-identity
contract.  This module keeps the *replaced* method bodies verbatim — the
same role :mod:`repro.sim._seed_kernel` plays for the event kernel — and
provides :func:`reference_models`, a context manager that swaps them back
onto the live classes so that:

* the model macrobenchmarks (:func:`repro.bench.perfbench.bench_models`)
  can time live-vs-seed on end-to-end workloads and *assert* both modes
  produce identical simulated results, and
* equivalence tests can run whole figures both ways and compare.

Do not optimise or "fix" the ``_seed_*`` functions: they are the
reference.  The indexed-matching reference lives separately in
:mod:`repro.mpi_sim._seed_match` (swapped in here via the queue-factory
class attributes).

Reference mode is the *whole* frozen seed stack, kernel included:

* the model-method bodies below are swapped onto the live classes,
* the matching queues come from :mod:`repro.mpi_sim._seed_match`,
* :class:`SeedNetMsg` (the seed's dataclass, verbatim) is patched over
  the ``NetMsg`` *module global* at every construction site — consumers
  only read attributes, which both layouts expose identically — and
* the kernel-class names (``Simulator``/``Event``/``AnyOf``) resolved by
  the runtime layers are rebound to :mod:`repro.sim._seed_kernel`, so
  reference runs execute on the frozen seed event loop too.

Two compatibility shims are installed on the *seed* ``Simulator`` for the
post-seed ``schedule_call1``/``succeed_later`` entry points a couple of
live call sites use: each is implemented the way the seed would have
written it (``schedule_call`` + a closure), so reference timing charges
the seed's interpreter cost and the heap records stay tuple-identical.

Still live in both modes: the tombstoned sleeper list's *storage* (the
seed ``deque.remove`` body is restored, operating on the same deque).
Both modes produce bit-identical simulated results — the harness and the
equivalence tests assert it on every run.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional

from ..hpx_rt import future as _future_mod
from ..hpx_rt import runtime as _runtime_mod
from ..hpx_rt import scheduler as _scheduler_mod
from ..hpx_rt.scheduler import Scheduler, Worker
from ..lci_sim import device as _lci_device_mod
from ..lci_sim.device import LciDevice, _CallerMeter
from ..mpi_sim import comm as _mpi_comm_mod
from ..mpi_sim._seed_match import SeedPostedQueue, SeedUnexpectedQueue
from ..mpi_sim.comm import MpiComm
from ..netsim import nic as _nic_mod
from ..netsim.fabric import Fabric
from ..parcelport import lci_pp as _lci_pp_mod
from ..parcelport.lci_pp import LciParcelport
from ..parcelport.mpi_pp import MpiParcelport
from ..sim import _seed_kernel
from ..sim import primitives as _primitives_mod
from ..sim import queues as _queues_mod
from ..sim.core import Event
from ..sim.primitives import AtomicCell, SpinLock
from ..tcp_sim import stack as _tcp_stack_mod

__all__ = ["reference_models", "SeedNetMsg"]


@dataclass
class SeedNetMsg:
    """The seed's :class:`NetMsg` as a plain dataclass (kept verbatim but
    for ``msg_id``, which the live ``Nic.post_send`` stamps from the
    fabric's counter, as it does for a live message)."""

    src: int
    dst: int
    size: int
    kind: str
    tag: Optional[int] = None
    payload: Any = None
    vchan: int = 0
    msg_id: int = -1
    inject_t: float = 0.0
    arrive_t: float = 0.0
    corrupted: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " CORRUPT" if self.corrupted else ""
        return (f"<NetMsg#{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.size}B tag={self.tag}{flag}>")


# ---------------------------------------------------------------------------
# frozen seed bodies (verbatim pre-optimisation code)
# ---------------------------------------------------------------------------
def _seed_worker_cpu(self, us):
    """Unscaled CPU time: communication-path / per-message cycles."""
    self.stats.add("cpu_us", us)
    return self.sim.timeout(us)


def _seed_worker_compute(self, us):
    """Application compute, scaled by the platform thread weight."""
    scaled = us / self._weight
    self.stats.add("compute_us", scaled)
    return self.sim.timeout(scaled)


def _seed_worker_compute_granular(self, us):
    remaining = us / self._weight
    slice_us = self.cost.task_slice_us
    self.stats.add("compute_us", remaining)
    while remaining > 0.0:
        dt = min(slice_us, remaining)
        remaining -= dt
        yield self.sim.timeout(dt)
        if remaining > 0.0:
            yield from self.locality.parcelport.background_work(self)


def _seed_spinlock_acquire(self):
    ev = Event(self.sim)
    if not self.locked:
        self.locked = True
        self.acquisitions += 1
        self._acq_time = self.sim.now
        # Even an uncontended acquire costs a CAS.
        self.sim.schedule_call(self.acquire_cost, lambda: ev.succeed())
    else:
        self._waiters.append((self.sim.now, ev))
        self.max_queue = max(self.max_queue, len(self._waiters))
    return ev


def _seed_spinlock_release(self):
    if not self.locked:
        raise RuntimeError(f"{self.name}: release of unheld lock")
    if self._waiters:
        t_enq, ev = self._waiters.popleft()
        self.total_wait_us += self.sim.now - t_enq
        self.acquisitions += 1
        self._acq_time = self.sim.now
        # Hand-off cost: the waiter's CAS finally succeeds.
        self.sim.schedule_call(self.acquire_cost, lambda: ev.succeed())
    else:
        self.locked = False


def _seed_atomic_wrap(self, old):
    inner = self._line.request(self._service())
    ev = Event(self.sim)
    inner.add_callback(lambda _e: ev.succeed(old))
    return ev


def _seed_fabric_transmit(self, msg, tx_done_t):
    dst = self.nics.get(msg.dst)
    if dst is None:
        raise KeyError(f"no NIC for destination node {msg.dst}")
    self.stats.inc("msgs")
    self.stats.add("bytes", msg.size)
    if self.injector is not None:
        verdict = self.injector.on_transmit(msg)
        if verdict == "drop":
            self.stats.inc("dropped_msgs")
            if self.obs is not None:
                self.obs.wire_fault(msg, "drop")
            return
        if verdict == "corrupt":
            msg.corrupted = True
            self.stats.inc("corrupted_msgs")
            if self.obs is not None:
                self.obs.wire_fault(msg, "corrupt")
    wire = 0.0 if msg.dst == msg.src else self.params.wire_latency_us
    arrive_t = tx_done_t + wire
    self.sim.schedule_call(arrive_t - self.sim.now,
                           lambda: dst.deliver(msg))


def _seed_caller_meter_touch(self, caller, now):
    """Record a call; return the number of distinct recent callers
    (including this one)."""
    self._last_seen[caller] = now
    horizon = now - self.window_us
    if len(self._last_seen) > 64:  # prune stale entries
        self._last_seen = {c: t for c, t in self._last_seen.items()
                           if t >= horizon}
    return sum(1 for t in self._last_seen.values() if t >= horizon)


def _seed_worker_lock(self, lk):
    """Generator: blockingly acquire a spin lock (FIFO)."""
    t0 = self.sim.now
    yield lk.acquire()
    self.stats.add("lock_wait_us", self.sim.now - t0)
    if self.obs is not None and self.sim.now > t0:
        self.obs.complete("lock", "wait", t0, self.sim.now,
                          loc=self.locality.lid, tid=self.name,
                          lock=lk.name)


def _seed_mpi_test(self, worker, req):
    t_req = self.sim.now
    yield from worker.lock(self.progress_lock)
    t_acq = self.sim.now
    yield from self._progress_locked(worker)
    done = req.done
    if self.obs is not None:
        self._obs_lock_span(worker, t_req, t_acq)
    self.progress_lock.release()
    return done


def _seed_mpi_progress_only(self, worker):
    t_req = self.sim.now
    yield from worker.lock(self.progress_lock)
    t_acq = self.sim.now
    yield from self._progress_locked(worker)
    if self.obs is not None:
        self._obs_lock_span(worker, t_req, t_acq)
    self.progress_lock.release()


def _seed_lci_progress(self, worker, caller):
    """Generator → int: messages handled, or -1 if the try-lock failed."""
    p = self.params
    now = self.sim.now
    pressure = self._callers.touch(caller, now)
    if not self.progress_lock.try_acquire():
        yield worker.cpu(p.trylock_fail_us)
        self.stats.inc("progress_contended")
        return -1
    mult = 1.0 + p.contention_factor * max(0, pressure - 1)
    if caller != self._last_caller:
        mult += p.caller_switch_penalty
        self._last_caller = caller
    mult = min(mult, p.max_contention_mult)
    self.stats.inc("progress_calls")
    t0 = self.sim.now
    yield worker.cpu(p.progress_base_us * mult)
    handled = 0
    try:
        for _ in range(p.progress_batch):
            msg = self.nic.poll_rx(self.vchan)
            if msg is None:
                break
            yield worker.cpu(self.nic.params.rx_overhead_us * mult)
            if self.obs is not None:
                mid, part = _lci_device_mod.payload_mid(msg.kind, msg.payload)
                self.obs.instant("progress", "poll", loc=self.rank,
                                 tid=worker.name, msg_id=msg.msg_id,
                                 mid=mid, part=part, kind=msg.kind,
                                 rx_wait=self.sim.now - msg.arrive_t)
            yield from self._dispatch(worker, msg, mult)
            handled += 1
    finally:
        self.progress_lock.release()
    if self.obs is not None:
        self.obs.complete("progress", "lci", t0, self.sim.now,
                          loc=self.rank, tid=worker.name,
                          handled=handled, vchan=self.vchan)
    if handled:
        self.stats.inc("msgs_progressed", handled)
    return handled


def _seed_lci_progress_loop(self):
    w = self._progress_worker
    rt = self.locality.runtime
    sched = self.locality.sched
    while rt.running:
        handled = 0
        for dev in self.devices:
            n = yield from dev.progress(w, caller="pin")
            if n > 0:
                handled += n
        if handled:
            # Completions were pushed; make sure a worker notices.
            sched.notify()
            continue
        if self.nic.rx_pending() == 0:
            yield self.nic.arrival_event()


def _seed_lci_scan_syncs(self, worker):
    if not self.sync_pending:
        return False
    yield from worker.lock(self.sync_lock)
    did = False
    ready = []
    keep = []
    for _ in range(min(_lci_pp_mod.SYNC_SCAN_LIMIT, len(self.sync_pending))):
        sync = self.sync_pending.popleft()
        if sync.cancelled:
            self.stats.inc("syncs_cancelled")
            continue
        yield worker.cpu(self.device.params.sync_test_us)
        if sync.test():
            ready.append(sync)
        else:
            keep.append(sync)
    self.sync_pending.extend(keep)
    self.sync_lock.release()
    for sync in ready:
        did = True
        yield from self._dispatch(worker, sync.value)
    return did


def _seed_mpi_scan_pending(self, worker):
    if not self.pending:
        return False
    yield from worker.lock(self.pending_lock)
    batch = []
    for _ in range(min(self.scan_limit, len(self.pending))):
        batch.append(self.pending.popleft())
    self.pending_lock.release()
    did = False
    keep = []
    for conn in batch:
        if conn.aborted:
            did = True
            if conn.cur is not None:
                self.mpi.cancel(conn.cur)
                conn.cur = None
            self.stats.inc("aborted_completions")
            continue
        req = conn.cur
        done = yield from self.mpi.test(worker, req)
        if conn.aborted:
            did = True
            if conn.cur is not None:
                self.mpi.cancel(conn.cur)
                conn.cur = None
            self.stats.inc("aborted_completions")
            continue
        if done:
            did = True
            conn.cur = None
            if req.error is not None:
                yield from self._handle_op_error(worker, conn)
            elif conn.role == "send":
                yield from self._advance_sender(worker, conn)
            else:
                yield from self._advance_receiver(worker, conn)
        else:
            keep.append(conn)
    if keep:
        yield from worker.lock(self.pending_lock)
        self.pending.extend(keep)
        self.pending_lock.release()
    return did


def _seed_parcelport_background_work(self, worker, rounds=None):
    """The seed's delegating poll loop (identical in both parcelports):
    one ``_background_once`` generator per round, every sub-poll entered
    unconditionally."""
    did_any = False
    idle_rounds = 0
    for _ in range(rounds if rounds is not None else self.poll_rounds):
        did = yield from self._background_once(worker)
        if did:
            did_any = True
            idle_rounds = 0
        else:
            idle_rounds += 1
            if idle_rounds >= 2:
                break
    return did_any


def _seed_sched_unregister_sleeper(self, ev):
    try:
        self._sleepers.remove(ev)
    except ValueError:
        pass


def _seed_sched_notify(self, n=1):
    """Wake up to ``n`` sleeping workers (skipping stale entries)."""
    woken = 0
    while self._sleepers and woken < n:
        ev = self._sleepers.popleft()
        if not ev.triggered:
            ev.succeed()
            woken += 1


def _compat_schedule_call1(self, delay, fn, arg):
    """Seed-style spelling of the live kernel's closure-free entry point."""
    return self.schedule_call(delay, lambda: fn(arg))


def _compat_succeed_later(self, event, delay, value=None):
    """Seed-style spelling of the live kernel's pre-staged wake record."""
    return self.schedule_call(delay, lambda: event.succeed(value))


# ---------------------------------------------------------------------------
# the swap registry
# ---------------------------------------------------------------------------
#: (class-or-module, attribute, seed implementation) — everything
#: reference mode swaps; the live values are captured at swap time so
#: nesting and exceptions restore cleanly
_PATCHES = [
    (Worker, "cpu", _seed_worker_cpu),
    (Worker, "compute", _seed_worker_compute),
    (Worker, "compute_granular", _seed_worker_compute_granular),
    (Worker, "lock", _seed_worker_lock),
    (SpinLock, "acquire", _seed_spinlock_acquire),
    (SpinLock, "release", _seed_spinlock_release),
    (AtomicCell, "_wrap", _seed_atomic_wrap),
    (Fabric, "transmit", _seed_fabric_transmit),
    (_CallerMeter, "touch", _seed_caller_meter_touch),
    (Scheduler, "unregister_sleeper", _seed_sched_unregister_sleeper),
    (Scheduler, "notify", _seed_sched_notify),
    (MpiParcelport, "background_work", _seed_parcelport_background_work),
    (LciParcelport, "background_work", _seed_parcelport_background_work),
    (MpiParcelport, "_scan_pending", _seed_mpi_scan_pending),
    (LciParcelport, "_scan_syncs", _seed_lci_scan_syncs),
    (LciParcelport, "_progress_loop", _seed_lci_progress_loop),
    (LciDevice, "progress", _seed_lci_progress),
    (MpiComm, "posted_queue_cls", SeedPostedQueue),
    (MpiComm, "unexpected_queue_cls", SeedUnexpectedQueue),
    (MpiComm, "test", _seed_mpi_test),
    (MpiComm, "progress_only", _seed_mpi_progress_only),
    # NetMsg construction sites: swap the name each module resolves at
    # call time (consumers elsewhere only read attributes)
    (_lci_device_mod, "NetMsg", SeedNetMsg),
    (_mpi_comm_mod, "NetMsg", SeedNetMsg),
    (_tcp_stack_mod, "NetMsg", SeedNetMsg),
    # kernel swap: every module that *constructs* kernel objects resolves
    # these names at call time
    (_runtime_mod, "Simulator", _seed_kernel.Simulator),
    (_runtime_mod, "Event", _seed_kernel.Event),
    (_future_mod, "Event", _seed_kernel.Event),
    (_scheduler_mod, "Event", _seed_kernel.Event),
    (_scheduler_mod, "AnyOf", _seed_kernel.AnyOf),
    (_primitives_mod, "Event", _seed_kernel.Event),
    (_queues_mod, "Event", _seed_kernel.Event),
    (_nic_mod, "Event", _seed_kernel.Event),
    (sys.modules[__name__], "Event", _seed_kernel.Event),
    (_seed_kernel.Simulator, "schedule_call1", _compat_schedule_call1),
    (_seed_kernel.Simulator, "succeed_later", _compat_succeed_later),
]

_MISSING = object()


@contextmanager
def reference_models():
    """Run the enclosed code on the frozen seed stack (kernel + models).

    Affects objects *constructed or called* inside the context (the
    patches are class- and module-level), so build the runtime inside the
    ``with``.  Results must be bit-identical either way — callers are
    expected to assert that; only wall-clock differs.
    """
    saved = [(obj, name, obj.__dict__.get(name, _MISSING))
             for obj, name, _ in _PATCHES]
    for obj, name, impl in _PATCHES:
        setattr(obj, name, impl)
    try:
        yield
    finally:
        for obj, name, impl in saved:
            if impl is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, impl)
