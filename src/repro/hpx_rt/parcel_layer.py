"""The HPX upper layer above the parcelport: parcel queues + connection cache.

This is the machinery the **send-immediate optimization** (§3.2.2) bypasses:

* a per-destination **parcel queue** (spinlock-protected): parcels are
  enqueued, then whoever obtains a connection drains the whole queue into a
  single HPX message — the aggregation mechanism;
* a **connection cache** (spinlock-protected, bounded): reuses parcelport
  sender-connection objects to limit allocation churn and bound concurrent
  in-flight HPX messages per destination.

In ``immediate`` mode, ``put_parcel`` serializes the single parcel right
away and hands it straight to the parcelport: no queue, no cache, no locks —
lower latency, no aggregation.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from ..flow import (OVERFLOW_SHED, SEND_WOULD_BLOCK, FlowControlPolicy,
                    ParcelShedError)
from ..sim.primitives import SpinLock
from ..sim.stats import StatSet
from .parcel import Parcel
from .serialization import serialize_cost, serialize_parcels

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Locality
    from .scheduler import Worker

__all__ = ["ParcelLayer"]


class ParcelLayer:
    """Per-locality parcel-dispatch layer (the HPX 'upper layer' of §3.2.2)."""

    def __init__(self, locality: "Locality", immediate: bool):
        self.locality = locality
        self.sim = locality.sim
        self.cost = locality.cost
        self.immediate = immediate
        self.stats = StatSet(f"L{locality.lid}.parcel_layer")
        self._message_ids = locality.runtime.message_ids

        self._queues: Dict[int, Deque[Parcel]] = defaultdict(deque)
        self._queue_locks: Dict[int, SpinLock] = {}
        self._cache_lock = SpinLock(
            self.sim, f"L{locality.lid}.conn_cache",
            acquire_cost=self.cost.spinlock_acquire_us)
        self._free_conns: Dict[int, List[object]] = defaultdict(list)
        self._conn_count: Dict[int, int] = defaultdict(int)
        #: bounded sample of parcels whose message failed under faults
        self.failed_parcels: List[Parcel] = []
        self._max_failed_kept = 256
        #: end-to-end flow control (None => PR-1 behavior, zero overhead)
        self.flow: Optional[FlowControlPolicy] = getattr(
            locality.runtime, "flow_policy", None)
        #: bounded sample of parcels dropped by the ``shed`` overflow policy
        self.shed_parcels: List[Parcel] = []
        #: span recorder (None => tracing off, zero overhead)
        self.obs = getattr(locality.runtime, "obs", None)
        #: adaptive state (repro.adapt); None => no holds, zero overhead.
        #: Set by the AdaptiveController at boot.
        self.adapt = None
        self._held_bytes: Dict[int, int] = {}
        self._held_dests: set = set()

    def _qlock(self, dest: int) -> SpinLock:
        lk = self._queue_locks.get(dest)
        if lk is None:
            lk = SpinLock(self.sim, f"L{self.locality.lid}.pq{dest}",
                          acquire_cost=self.cost.spinlock_acquire_us)
            self._queue_locks[dest] = lk
        return lk

    # -- public entry point ---------------------------------------------------
    def put_parcel(self, worker: "Worker", parcel: Parcel):
        """Generator: hand one parcel to the network stack (§3.2.2 data path)."""
        if self.adapt is not None:
            # Mean-parcel-size signal for the adaptive controller.
            self.stats.inc("adapt_parcels")
            self.stats.inc("adapt_bytes", parcel.serialized_bytes)
        if self.immediate:
            yield from self._put_immediate(worker, parcel)
        else:
            yield from self._put_default(worker, parcel)

    # -- immediate path ---------------------------------------------------------
    def _put_immediate(self, worker: "Worker", parcel: Parcel):
        pp = self.locality.parcelport
        sp = None if self.obs is None else self.obs.begin(
            "parcel", "serialize", loc=self.locality.lid, tid=worker.name)
        msg = serialize_parcels([parcel], self.cost,
                                next(self._message_ids))
        yield worker.cpu(serialize_cost(msg, self.cost))
        if self.obs is not None:
            self.obs.end(sp, mid=msg.mid, parcels=1, bytes=msg.total_bytes,
                         dest=msg.dest)
        conn = pp.make_connection(parcel.dest)
        while True:
            status = yield from pp.submit_message(
                worker, conn, msg, self._immediate_done)
            if status != SEND_WOULD_BLOCK:
                self.stats.inc("messages_sent")
                self.stats.inc("parcels_sent")
                return
            if self.flow is not None and self.flow.overflow == OVERFLOW_SHED:
                self._shed(parcel)
                return
            # Backpressure: this task is throttled, but it keeps *driving*
            # the stack (delivering acks frees credits, pumping the backlog)
            # so progress never depends on some other worker being idle.
            self.stats.inc("puts_deferred")
            yield from pp.background_work(worker, rounds=1)

    def _immediate_done(self, worker: "Worker", conn) -> None:
        # Transient connection: nothing to recycle.
        self.stats.inc("immediate_completions")
        return None

    # -- default (queue + cache) path ---------------------------------------
    def _put_default(self, worker: "Worker", parcel: Parcel):
        dest = parcel.dest
        fl = self.flow
        if fl is not None and fl.max_queued_parcels:
            while len(self._queues[dest]) >= fl.max_queued_parcels:
                if fl.overflow == OVERFLOW_SHED:
                    self._shed(parcel)
                    return
                # Queue full: throttle the producer, but keep draining —
                # both the network (acks/credits) and our own queue, so
                # progress holds even with every worker stuck in a put.
                self.stats.inc("puts_deferred")
                yield from self.locality.parcelport.background_work(
                    worker, rounds=1)
                if len(self._queues[dest]) >= fl.max_queued_parcels:
                    yield from self._pump(worker, dest)
        qlock = self._qlock(dest)
        yield from worker.lock(qlock)
        yield worker.cpu(self.cost.queue_op_us)
        self._queues[dest].append(parcel)
        qlock.release()
        ad = self.adapt
        if ad is not None and ad.agg_hold_bytes > 0:
            # Adaptive aggregation hold: skip the pump while fewer than
            # agg_hold_bytes are queued for this destination, so the next
            # drain carries a deeper batch.  The controller flushes held
            # destinations every tick, bounding the added latency to one
            # controller interval.
            held = self._held_bytes.get(dest, 0) + parcel.serialized_bytes
            if held < ad.agg_hold_bytes:
                self._held_bytes[dest] = held
                self._held_dests.add(dest)
                self.stats.inc("adapt_holds")
                return
            self._held_bytes[dest] = 0
            self._held_dests.discard(dest)
        yield from self._pump(worker, dest)

    def _pump(self, worker: "Worker", dest: int):
        """Try to obtain a connection and drain the parcel queue into it."""
        pp = self.locality.parcelport
        conn = None
        create = False
        yield from worker.lock(self._cache_lock)
        yield worker.cpu(self.cost.cache_op_us)
        free = self._free_conns[dest]
        if free:
            conn = free.pop()
            self.stats.inc("cache_hits")
        elif self._conn_count[dest] < self.cost.max_connections_per_dest:
            self._conn_count[dest] += 1
            create = True
            self.stats.inc("cache_misses")
        self._cache_lock.release()
        if create:
            yield worker.cpu(self.cost.alloc_us)
            conn = pp.make_connection(dest)
        if conn is None:
            # All connections busy; their completion will pump the queue —
            # this wait is where aggregation opportunity comes from.
            self.stats.inc("pump_deferred")
            return
        yield from self._drain_into(worker, conn)

    def _drain_into(self, worker: "Worker", conn):
        """Drain the queue for ``conn.dest`` into ``conn``; recycle
        ``conn`` if the queue is empty."""
        dest = conn.dest
        pp = self.locality.parcelport
        fl = self.flow
        if (fl is not None and fl.overflow != OVERFLOW_SHED
                and not pp.can_accept(dest)):
            # Known-full backlog: don't waste serialization work — park the
            # drain until the parcelport has room again (shed policy instead
            # proceeds and sheds whatever the submit refuses).
            yield from self._defer_drain(worker, conn)
            return
        qlock = self._qlock(dest)
        yield from worker.lock(qlock)
        q = self._queues[dest]
        parcels = list(q)
        q.clear()
        if self.adapt is not None:
            # Whatever was held is leaving now; restart the hold window.
            self._held_bytes[dest] = 0
            self._held_dests.discard(dest)
        yield worker.cpu(self.cost.queue_op_us * max(1, len(parcels)))
        qlock.release()
        if not parcels:
            yield from self._recycle(worker, conn)
            return
        sp = None if self.obs is None else self.obs.begin(
            "parcel", "serialize", loc=self.locality.lid, tid=worker.name)
        msg = serialize_parcels(parcels, self.cost,
                                next(self._message_ids))
        yield worker.cpu(serialize_cost(msg, self.cost))
        if self.obs is not None:
            self.obs.end(sp, mid=msg.mid, parcels=len(parcels),
                         bytes=msg.total_bytes, dest=msg.dest)
        status = yield from pp.submit_message(
            worker, conn, msg, self._on_send_complete)
        if status != SEND_WOULD_BLOCK:
            self.stats.inc("messages_sent")
            self.stats.inc("parcels_sent", len(parcels))
            if len(parcels) > 1:
                self.stats.inc("aggregated_messages")
                self.stats.inc("aggregated_parcels", len(parcels))
            return
        if fl is not None and fl.overflow == OVERFLOW_SHED:
            for parcel in parcels:
                self._shed(parcel)
            yield from self._recycle(worker, conn)
            return
        # Defer: push the batch back (preserving order) and retry once the
        # parcelport signals room.
        yield from worker.lock(qlock)
        self._queues[dest].extendleft(reversed(parcels))
        self.stats.inc("parcels_requeued", len(parcels))
        qlock.release()
        yield from self._defer_drain(worker, conn)

    def _defer_drain(self, worker: "Worker", conn):
        """Park a drain until the parcelport backlog for ``conn.dest`` has
        room."""
        self.stats.inc("drains_deferred")
        yield from self._recycle(worker, conn)
        self.locality.parcelport.notify_when_accepting(conn.dest,
                                                       self._spawn_drain)

    def _spawn_drain(self, dest: int) -> None:
        """Schedule a pump of the ``dest`` queue as its own task."""
        self.locality.spawn(self._pump, dest)

    def _shed(self, parcel: Parcel) -> None:
        """Overload-shed one parcel (bounded sample + app-visible failure)."""
        fl = self.flow
        self.stats.inc("parcels_shed")
        if self.obs is not None:
            self.obs.instant("parcel", "shed", loc=self.locality.lid,
                             pid=parcel.pid, dest=parcel.dest)
        if fl is not None and len(self.shed_parcels) < fl.shed_sample:
            self.shed_parcels.append(parcel)
        hook = getattr(self.locality.runtime, "on_parcel_failure", None)
        if hook is not None:
            hook(parcel, ParcelShedError(
                f"parcel to L{parcel.dest} shed under overload"))

    def _on_send_complete(self, worker: "Worker", conn) -> None:
        """Callback when a send finishes: requeue the drain as a task.

        Scheduling (rather than draining inline) bounds the generator
        nesting depth when the parcel queue is continuously refilled, and
        matches HPX handing continuation work back to the scheduler.
        """
        self.locality.spawn(self._drain_into, conn)
        return None

    def _recycle(self, worker: "Worker", conn):
        yield from worker.lock(self._cache_lock)
        yield worker.cpu(self.cost.cache_op_us)
        self._free_conns[conn.dest].append(conn)
        self._cache_lock.release()

    # -- fault-recovery hooks (called by the parcelport's reliability layer)
    def release_connection(self, conn) -> None:
        """Return an *aborted* sender connection to the cache.

        The reliability layer withdraws a connection mid-chain before
        retransmitting its message; the normal ``on_complete`` path will
        never run for it, so without this the cache's per-destination
        capacity would bleed away until every send deferred forever.
        Pure bookkeeping (no simulated cost — the abort path already
        charged its own), plus a queue pump in case parcels were waiting
        on the capacity we just returned.
        """
        self.stats.inc("connections_released")
        if self.immediate:
            return                       # transient conns: nothing cached
        # The aborted object itself is retired (late completions from its
        # old chain must keep seeing ``aborted``); only its capacity slot
        # returns, so the next pump can mint a fresh connection.
        dest = conn.dest
        if self._conn_count[dest] > 0:
            self._conn_count[dest] -= 1
        self._spawn_drain(dest)

    def report_send_failure(self, msg, exc: Exception) -> None:
        """An HPX message exhausted its retries: degrade gracefully.

        Counts the failure, remembers a bounded sample of failed parcels,
        and invokes the runtime's ``on_parcel_failure`` hook per parcel
        (applications use it to fail the corresponding futures) — the
        guaranteed alternative to an infinite hang.
        """
        self.stats.inc("messages_failed")
        self.stats.inc("parcels_failed", msg.num_parcels)
        if len(self.failed_parcels) < self._max_failed_kept:
            self.failed_parcels.extend(
                msg.parcels[:self._max_failed_kept
                            - len(self.failed_parcels)])
        hook = getattr(self.locality.runtime, "on_parcel_failure", None)
        if hook is not None:
            for parcel in msg.parcels:
                hook(parcel, exc)

    # -- adaptive-aggregation hooks (called by the AdaptiveController) -------
    def take_held(self) -> List[int]:
        """Destinations currently holding parcels below the aggregation

        threshold, in deterministic (sorted) order; clears the hold state
        so the controller's flush is one-shot per tick.
        """
        if not self._held_dests:
            return []
        dests = sorted(self._held_dests)
        self._held_dests.clear()
        for dest in dests:
            self._held_bytes[dest] = 0
        return dests

    def spawn_flush(self, dest: int) -> None:
        """Schedule a pump for ``dest`` (ends an aggregation hold)."""
        self.stats.inc("adapt_flushes")
        self.locality.spawn(self._pump, dest)

    # -- introspection -------------------------------------------------------
    def queued_parcels(self, dest: Optional[int] = None) -> int:
        if dest is not None:
            return len(self._queues[dest])
        return sum(len(q) for q in self._queues.values())

    def aggregation_ratio(self) -> float:
        """Mean parcels per HPX message actually sent."""
        msgs = self.stats.counters.get("messages_sent", 0)
        parcels = self.stats.counters.get("parcels_sent", 0)
        return parcels / msgs if msgs else 0.0
