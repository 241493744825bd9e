"""Worker threads and the per-locality task scheduler.

Mirrors the execution model the paper describes for HPX:

* one worker thread per core (all cores, unless the parcelport reserves
  core 0 for a pinned progress thread — the ``rp``/``pin`` configurations);
* workers run application tasks; **when idle they call the parcelport's
  ``background_work``** (§3.1 "Threads and background work");
* still-idle workers back off exponentially and are woken by task arrivals
  or NIC activity.

Thread-weight scaling (see :mod:`repro.hpx_rt.platform`): ``worker.compute``
divides by ``thread_weight`` so one simulated core provides the throughput
of ``weight`` physical cores, while ``worker.cpu`` (communication-path
cycles) is unscaled.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING, Union

from ..sim.core import Simulator, Sleeper
from ..sim.primitives import SpinLock
from ..sim.stats import StatSet
from .parcel import HpxMessage, Parcel
from .task import NO_ARG, Task

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Locality

__all__ = ["Scheduler", "Worker"]

#: what the task queue holds: a parcel to execute and a received message
#: to decode queue as themselves (one object each); anything else is a
#: :class:`Task`
QueueEntry = Union[Task, Parcel, HpxMessage]


class Scheduler:
    """Shared FIFO task queue + sleeping-worker wake list for one locality."""

    def __init__(self, sim: Simulator, name: str = "sched"):
        self.sim = sim
        self.name = name
        self._queue: Deque[QueueEntry] = deque()
        self._sleepers: Deque[Sleeper] = deque()
        #: lazily tombstoned sleeper events: unregistering is O(1) set-add
        #: instead of deque.remove's O(n); entries are reclaimed at the
        #: next notify or by compaction
        self._stale: set = set()
        self.stats = StatSet(name)

    # -- task queue -------------------------------------------------------
    def push(self, entry: QueueEntry) -> None:
        self._queue.append(entry)
        self.stats.counters["tasks_pushed"] += 1
        self.notify()

    def try_pop(self) -> Optional[QueueEntry]:
        if self._queue:
            self.stats.counters["tasks_popped"] += 1
            return self._queue.popleft()
        return None

    def pending(self) -> int:
        return len(self._queue)

    # -- sleep/wake -------------------------------------------------------------
    def register_sleeper(self, ev: Sleeper) -> None:
        self._sleepers.append(ev)

    def unregister_sleeper(self, ev: Sleeper) -> None:
        if ev.triggered:
            # Already popped (and woken) by notify — nothing to reclaim.
            return
        self._stale.add(ev)
        if len(self._stale) > 8 and 2 * len(self._stale) >= len(self._sleepers):
            stale = self._stale
            self._sleepers = deque(
                e for e in self._sleepers if e not in stale)
            stale.clear()

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` sleeping workers (skipping stale entries)."""
        woken = 0
        sleepers = self._sleepers
        stale = self._stale
        while sleepers and woken < n:
            ev = sleepers.popleft()
            if stale and ev in stale:
                stale.discard(ev)
                continue
            if not ev.triggered:
                ev.succeed()
                woken += 1

    def notify_all(self) -> None:
        self.notify(n=len(self._sleepers))


class Worker:
    """One worker thread pinned to one core of a locality."""

    def __init__(self, locality: "Locality", core_id: int):
        self.locality = locality
        self.core_id = core_id
        self.sim = locality.sim
        self.cost = locality.cost
        self._weight = locality.platform.thread_weight
        self.stats = StatSet(f"L{locality.lid}.w{core_id}")
        #: communication-path CPU charged through :meth:`cpu`, in µs
        self.cpu_us = 0.0
        self.name = f"L{locality.lid}/w{core_id}"
        #: span recorder (None => tracing off, zero overhead)
        self.obs = getattr(locality.runtime, "obs", None)

    # -- time helpers used by task bodies ------------------------------------
    def cpu(self, us: float) -> float:
        """Unscaled CPU time: communication-path / per-message cycles.

        Returns the bare charge; yielding it takes the kernel's float
        fast path — the same heap record ``yield sim.timeout(us)`` would
        schedule, without the Timeout allocation.  This is the single
        hottest call in the stack (every poll, copy and post charges
        through it), so it adds to a plain float attribute.
        """
        self.cpu_us += us
        return us

    def compute(self, us: float) -> float:
        """Application compute, scaled by the platform thread weight."""
        scaled = us / self._weight
        self.stats.accum["compute_us"] += scaled
        return scaled

    def compute_granular(self, us: float):
        """Generator: compute that stands for a *batch* of fine-grained
        HPX tasks.

        Real HPX applications express big computations as many small
        tasks, so the scheduler (and with it the parcelport's background
        work) runs between them.  A monolithic ``compute`` would starve
        communication for its whole duration; this slices the work at the
        platform task granularity and gives the parcelport one background
        slice per boundary — on the MPI parcelport that is exactly where
        worker threads queue up on the big progress lock.
        """
        remaining = us / self._weight
        slice_us = self.cost.task_slice_us
        self.stats.accum["compute_us"] += remaining
        while remaining > 0.0:
            dt = min(slice_us, remaining)
            remaining -= dt
            yield dt
            if remaining > 0.0:
                yield from self.locality.parcelport.background_work(self)

    def lock(self, lk: SpinLock):
        """Generator: blockingly acquire a spin lock (FIFO)."""
        t0 = self.sim.now
        yield lk.acquire()
        self.lock_acquired(lk, t0)

    def lock_acquired(self, lk: SpinLock, t0: float) -> None:
        """Post-acquire bookkeeping for hot call sites that inline
        :meth:`lock` as a bare ``yield lk.acquire()`` (same grant, same
        stats — minus one generator per acquisition)."""
        now = self.sim.now
        self.stats.accum["lock_wait_us"] += now - t0
        if self.obs is not None and now > t0:
            self.obs.complete("lock", "wait", t0, now,
                              loc=self.locality.lid, tid=self.name,
                              lock=lk.name)

    # -- main loop ----------------------------------------------------------
    def start(self) -> None:
        self.sim.process(self._run(), name=self.name)

    def _run(self):
        loc = self.locality
        sim = self.sim
        sched = loc.sched
        cost = self.cost
        rt = loc.runtime
        run_action = loc._run_action
        decode = loc._decode
        backoff = cost.idle_poll_min_us
        since_bg = 0
        while rt.running:
            entry = sched.try_pop()
            if entry is not None:
                yield self.cpu(cost.task_dispatch_us)
                self.stats.counters["tasks_run"] += 1
                cls = entry.__class__
                if cls is Parcel:
                    body = run_action(self, entry)
                elif cls is HpxMessage:
                    body = decode(self, entry)
                elif entry.arg is NO_ARG:
                    body = entry.fn(self)
                else:
                    body = entry.fn(self, entry.arg)
                if body is not None:
                    yield from body
                backoff = cost.idle_poll_min_us
                # HPX interleaves background work with task scheduling:
                # even a saturated worker gives the parcelport one slice
                # every few tasks, else in-flight sends would starve.
                since_bg += 1
                if since_bg >= 2:
                    since_bg = 0
                    yield from self.locality.parcelport.background_work(self)
                continue

            did = yield from self.locality.parcelport.background_work(self)
            self.stats.counters["background_calls"] += 1
            if did:
                self.stats.counters["background_useful"] += 1
                backoff = cost.idle_poll_min_us
                continue

            # Nothing to do: sleep until woken or poll timer expires.
            nap = Sleeper(sim, backoff)
            sched.register_sleeper(nap)
            yield nap
            sched.unregister_sleeper(nap)
            backoff = min(backoff * 2.0, cost.idle_poll_max_us)
