"""Parcelport abstract base and connection objects.

A **connection** (§3.1) manages the chain of sends or receives belonging to
one HPX message: at most one operation is outstanding per connection at any
time; the next is posted only when the previous completes.  Sender
connections are created by the upper layer (and cached unless
send-immediate); receiver connections are created when a header message
arrives.
"""

from __future__ import annotations

import abc
import itertools
from collections import deque
from typing import (Any, Callable, Deque, Dict, List, Optional, Tuple,
                    TYPE_CHECKING)

from ..faults import ParcelSendError
from ..flow import SEND_OK, SEND_QUEUED, SEND_WOULD_BLOCK, FlowControlPolicy
from ..hpx_rt.parcel import HpxMessage
from ..hpx_rt.scheduler import Worker
from ..sim.stats import StatSet
from .reliability import ReliabilityLayer

if TYPE_CHECKING:  # pragma: no cover
    from ..hpx_rt.runtime import Locality

__all__ = ["Connection", "Parcelport", "DetachedWorker"]


class Connection:
    """Per-HPX-message chain state (sender or receiver role).

    ``cid`` comes from the owning parcelport's counter, so two identical
    runs in one process number their connections alike; the reliability
    layer breaks receive-expiry ties by it, so only its order within one
    parcelport matters.
    """

    __slots__ = ("dest", "role", "msg", "plan", "stage", "tag_raw", "tag",
                 "on_complete", "cur", "cid", "piggy_bytes", "src",
                 "seq", "aborted", "last_active")

    def __init__(self, dest: int, role: str = "send", cid: int = 0):
        self.dest = dest
        self.role = role                   # "send" | "recv"
        self.cid = cid
        self.reset()

    def reset(self) -> None:
        """Prepare for (re)use by a new HPX message."""
        self.msg: Optional[HpxMessage] = None
        self.plan: List[Tuple[str, int]] = []
        self.stage = 0
        self.tag_raw = 0
        self.tag = 0
        self.on_complete: Optional[Callable] = None
        self.cur: Any = None               # in-flight request / completion
        self.piggy_bytes = 0
        self.src = -1
        self.seq: Optional[int] = None     # end-to-end sequence number
        self.aborted = False               # chain withdrawn by reliability
        self.last_active = 0.0             # receiver-chain activity stamp

    @property
    def finished_chunks(self) -> bool:
        return self.stage >= len(self.plan)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Conn#{self.cid} {self.role}->{self.dest} "
                f"stage={self.stage}/{len(self.plan)}>")


class DetachedWorker(Worker):
    """A worker context not owned by the scheduler.

    Used for boot-time posting and dedicated progress threads: it provides
    the ``cpu``/``lock`` cost-charging interface without participating in
    task scheduling.
    """

    def __init__(self, locality: "Locality", name: str = "detached"):
        super().__init__(locality, core_id=-1)
        self.name = f"L{locality.lid}/{name}"

    def start(self) -> None:  # pragma: no cover - misuse guard
        raise RuntimeError("detached workers are not scheduled")


class Parcelport(abc.ABC):
    """Interface the HPX runtime expects from a parcelport (§2.2)."""

    #: True if this parcelport pins a progress thread to core 0 (the HPX
    #: resource partitioner's ``rp`` mode) — the runtime then starts one
    #: fewer worker thread.
    reserves_progress_core: bool = False

    def __init__(self, locality: "Locality"):
        self.locality = locality
        self.sim = locality.sim
        self.cost = locality.cost
        self.nic = locality.nic
        self.stats = StatSet(f"L{locality.lid}.pp")
        #: numbers this parcelport's connections (``Connection.cid``)
        self._conn_ids = itertools.count()
        # One background call stands in for `thread_weight` physical
        # threads' worth of polling (see PlatformSpec docs).
        self.poll_rounds = max(1, round(locality.platform.thread_weight))
        # End-to-end reliability: only instantiated when the runtime asks
        # for it (active fault injector or RunOptions(reliable=True)) — a
        # None layer keeps every hot path byte-identical to the seed.
        self.reliability: Optional[ReliabilityLayer] = None
        runtime = locality.runtime
        if getattr(runtime, "reliable", False):
            self.reliability = ReliabilityLayer(
                self.sim, runtime.retry_policy,
                runtime.rng.stream(f"retry{locality.lid}"),
                stats=self.stats)
        # End-to-end flow control: same contract as reliability — a None
        # policy keeps every hot path byte-identical to the seed.
        self.flow: Optional[FlowControlPolicy] = getattr(
            runtime, "flow_policy", None)
        #: per-destination backlog of (conn, msg, on_complete) waiting for
        #: credit; drained by :meth:`_flow_pump` from background work
        self._backlog: Dict[int, Deque[Tuple[Connection, HpxMessage,
                                             Optional[Callable]]]] = {}
        self._backlog_total = 0
        self.backlog_peak = 0
        #: the reliability layer's ``credit_epoch`` at the last backlog
        #: pass that drained nothing (see :meth:`_flow_pump`)
        self._futile_epoch = -1
        #: (dest, callback) pairs fired when the dest backlog has room
        self._accept_waiters: List[Tuple[int, Callable[[int], None]]] = []
        if (self.flow is not None and self.reliability is not None
                and self.flow.credit_window):
            self.reliability.set_credit_window(self.flow.credit_window)
        #: span recorder (None => tracing off, zero overhead)
        self.obs = getattr(runtime, "obs", None)
        #: adaptive state (repro.adapt); None => static policies, zero
        #: overhead.  Set by the AdaptiveController at boot.
        self.adapt = None
        #: open backlog-wait spans, keyed by message mid
        self._obs_backlog: Dict[int, Any] = {}
        if self.reliability is not None:
            self.reliability.obs = self.obs
            self.reliability.loc = locality.lid

    # -- upper-layer interface ------------------------------------------------
    def make_connection(self, dest: int) -> Connection:
        """A fresh (or recycled by the caller) sender connection."""
        return Connection(dest, "send", next(self._conn_ids))

    @abc.abstractmethod
    def send_message(self, worker: Worker, conn: Connection,
                     msg: HpxMessage, on_complete):
        """Generator: start transferring ``msg`` over ``conn``.

        Returns once the chain is *initiated*; completion is driven by
        background work, which finally runs the ``on_complete(worker,
        conn)`` generator.
        """

    @abc.abstractmethod
    def background_work(self, worker: Worker, rounds: Optional[int] = None):
        """Generator → bool: a slice of parcelport progress.

        ``rounds`` overrides the weight-scaled default poll-round count
        (the scheduler passes ``rounds=1`` for its between-task slices).
        """

    # -- flow control (active only with a FlowControlPolicy) -----------------
    def submit_message(self, worker: Worker, conn: Connection,
                       msg: HpxMessage, on_complete):
        """Generator → status: the flow-controlled front of ``send_message``.

        Without a policy this is exactly ``send_message`` (``SEND_OK``).
        With one: the send starts immediately when nothing is backlogged
        ahead of it and a credit is available; otherwise it parks in the
        bounded per-destination backlog (``SEND_QUEUED``, drained by
        background work as acks return credits) — and when the backlog is
        full the caller gets ``SEND_WOULD_BLOCK`` and must defer or shed.
        Credit accounting is synchronous (no yield between the check and
        the decrement), so the window can never be overshot.
        """
        fl = self.flow
        if fl is None:
            yield from self.send_message(worker, conn, msg, on_complete)
            return SEND_OK
        rel = self.reliability
        dest = msg.dest
        q = self._backlog.get(dest)
        credits_on = rel is not None and rel.credit_window > 0
        if not q and (not credits_on or rel.consume_credit(dest)):
            if credits_on:
                msg.credited = True
            yield from self.send_message(worker, conn, msg, on_complete)
            return SEND_OK
        if q is None:
            q = self._backlog[dest] = deque()
        if fl.max_backlog and len(q) >= fl.max_backlog:
            self.stats.inc("backlog_refusals")
            return SEND_WOULD_BLOCK
        if self.obs is not None:
            sp = self.obs.begin("flow", "backlog_wait",
                                loc=self.locality.lid, tid=worker.name,
                                mid=msg.mid, dest=dest)
            if sp is not None:
                self._obs_backlog[msg.mid] = sp
        q.append((conn, msg, on_complete))
        self._backlog_total += 1
        if self._backlog_total > self.backlog_peak:
            self.backlog_peak = self._backlog_total
        self.stats.inc("backlogged_sends")
        return SEND_QUEUED

    def can_accept(self, dest: int) -> bool:
        """True if a submit for ``dest`` would not return WOULD_BLOCK."""
        fl = self.flow
        if fl is None or not fl.max_backlog:
            return True
        q = self._backlog.get(dest)
        return q is None or len(q) < fl.max_backlog

    def notify_when_accepting(self, dest: int,
                              callback: Callable[[int], None]) -> None:
        """Register a one-shot ``callback(dest)`` fired (from background
        work) once the ``dest`` backlog has room again."""
        self._accept_waiters.append((dest, callback))

    def backlog_depths(self) -> Dict[int, int]:
        """Current backlog occupancy per destination (gauges)."""
        return {d: len(q) for d, q in self._backlog.items() if q}

    def _flow_pump(self, worker: Worker):
        """Generator → bool: drain backlogged sends as credits return and
        fire accept-waiters once room frees up.

        Pure bookkeeping when idle (no simulated cost) so a flow-enabled
        but unloaded run stays byte-identical to one without the policy.

        A pass that drains nothing records the reliability layer's
        ``credit_epoch`` in ``_futile_epoch``, and background work skips
        the pump while that epoch holds and no accept-waiter is
        registered.  This is exact: a send is queued only when its
        destination has no credit or already has a queue, and a
        destination gains credit only through a release, which moves the
        epoch.  So until then every queued destination is still out of
        credit and a pass would drain nothing again.
        """
        did = False
        rel = self.reliability
        if self._backlog_total:
            credits_on = rel is not None and rel.credit_window > 0
            for dest in list(self._backlog.keys()):
                q = self._backlog.get(dest)
                while q:
                    # Peek first: a consume on an empty window would count
                    # a credit stall per background poll, drowning the
                    # one-per-submit signal the counters report.
                    if credits_on and not rel.has_credit(dest):
                        break
                    conn, msg, cb = q.popleft()
                    self._backlog_total -= 1
                    if self.obs is not None:
                        self.obs.end(self._obs_backlog.pop(msg.mid, None))
                    if credits_on:
                        rel.consume_credit(dest)
                        msg.credited = True
                    did = True
                    self.stats.inc("backlog_drains")
                    yield from self.send_message(worker, conn, msg, cb)
            if credits_on and not did:
                self._futile_epoch = rel.credit_epoch
        if self._accept_waiters:
            keep: List[Tuple[int, Callable[[int], None]]] = []
            fired: List[Tuple[int, Callable[[int], None]]] = []
            for dest, cb in self._accept_waiters:
                if self.can_accept(dest):
                    fired.append((dest, cb))
                else:
                    keep.append((dest, cb))
            self._accept_waiters = keep
            for dest, cb in fired:
                did = True
                cb(dest)
        return did

    def start(self) -> None:
        """Boot-time hook: post persistent receives, spawn progress thread."""

    # -- shared helpers ------------------------------------------------------
    def _finish(self, worker: Worker, conn: Connection):
        """Run the completion continuation of a finished sender chain."""
        self.stats.inc("sends_completed")
        if self.obs is not None and conn.msg is not None:
            self.obs.instant("msg", "send_done", loc=self.locality.lid,
                             tid=worker.name, mid=conn.msg.mid)
        if self.reliability is not None:
            # The conn may be recycled now; stop aborting it on retransmit.
            self.reliability.note_local_done(conn)
        cb = conn.on_complete
        conn.on_complete = None
        if cb is not None:
            result = cb(worker, conn)
            if result is not None:  # generator continuation
                yield from result

    def _deliver(self, msg: HpxMessage) -> None:
        """Hand a fully received HPX message to the runtime."""
        self.stats.inc("messages_delivered")
        if self.obs is not None:
            self.obs.instant("msg", "delivered", loc=self.locality.lid,
                             mid=msg.mid, src=msg.src,
                             parcels=msg.num_parcels)
        self.locality.on_message(msg)

    # -- reliability machinery (active only under fault injection) -----------
    def _complete_receive(self, worker: Worker, msg: HpxMessage,
                          seq: Optional[int]):
        """Generator: deliver a fully-assembled message, reliably.

        With reliability off (or a pre-reliability peer, ``seq is None``)
        this is exactly :meth:`_deliver`.  Otherwise: suppress duplicate
        deliveries of retransmitted messages by (src, seq), and always
        ack — re-acking a duplicate is what unsticks a sender whose
        previous ack was lost.
        """
        rel = self.reliability
        if rel is None or seq is None:
            self._deliver(msg)
            return
        if rel.is_dup(msg.src, seq):
            self.stats.inc("dup_deliveries")
            if self.obs is not None:
                self.obs.instant("msg", "dup_delivery",
                                 loc=self.locality.lid, mid=msg.mid,
                                 seq=seq)
        else:
            rel.record_delivery(msg.src, seq)
            self._deliver(msg)
        if self.obs is not None:
            self.obs.instant("msg", "ack_sent", loc=self.locality.lid,
                             tid=worker.name, mid=msg.mid, seq=seq,
                             dest=msg.src)
        yield from self._send_ack(worker, msg.src, seq)

    def _send_ack(self, worker: Worker, dst: int, seq: int):
        """Generator: transport-specific end-to-end ack send."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement reliability")

    def _abort_send_conn(self, worker: Worker, conn: Connection):
        """Withdraw an in-flight sender chain before retransmitting.

        Returns None or a generator (subclasses add transport-specific
        cleanup).  An aborted connection that came from the connection
        cache is handed back so the cache doesn't bleed capacity — the
        user callback never runs (the message is retransmitted or
        reported failed through the reliability path instead).
        """
        conn.aborted = True
        self.stats.inc("send_chains_aborted")
        had_cb = conn.on_complete is not None
        conn.on_complete = None
        pl = self.locality.parcel_layer
        if had_cb and pl is not None:
            pl.release_connection(conn)
        return None

    def _abort_recv_conn(self, worker: Worker, conn: Connection):
        """Reap an abandoned receiver chain.

        Returns None or a generator (subclasses add transport-specific
        cleanup: cancelling posted receives, releasing tags).
        """
        conn.aborted = True
        return None

    def _fail_send(self, worker: Worker, entry):
        """Generator: retries exhausted — report the message as failed."""
        self.stats.inc("sends_failed")
        if self.obs is not None:
            self.obs.instant("msg", "failed", loc=self.locality.lid,
                             tid=worker.name, mid=entry.msg.mid,
                             seq=entry.seq, attempts=entry.attempts)
        if entry.conn is not None:
            res = self._abort_send_conn(worker, entry.conn)
            if res is not None:
                yield from res
            entry.conn = None
        pl = self.locality.parcel_layer
        if pl is not None:
            pl.report_send_failure(entry.msg, ParcelSendError(
                f"message seq={entry.seq} to locality {entry.msg.dest} "
                f"failed after {entry.attempts} retransmissions"))

    def _reliability_expire(self, worker: Worker, now: float):
        """Generator → bool: retransmit the sends and reap the receive
        chains whose deadlines passed by ``now``.

        Background work charges the poll itself and builds this generator
        only when :meth:`ReliabilityLayer.deadline_due` found a live
        expired deadline at the poll's start, ``now``.
        """
        rel = self.reliability
        did = False
        for entry in rel.take_expired(now):
            did = True
            if entry.attempts >= rel.policy.max_retries:
                rel.drop(entry)
                yield from self._fail_send(worker, entry)
                continue
            entry.attempts += 1
            self.stats.inc("retransmits")
            if self.obs is not None:
                self.obs.instant("msg", "retransmit", loc=self.locality.lid,
                                 tid=worker.name, mid=entry.msg.mid,
                                 seq=entry.seq, attempt=entry.attempts)
            if entry.conn is not None:
                res = self._abort_send_conn(worker, entry.conn)
                if res is not None:
                    yield from res
                entry.conn = None
            rel.reschedule(entry)
            yield worker.cpu(rel.policy.retransmit_cpu_us)
            conn = self.make_connection(entry.msg.dest)
            yield from self.send_message(worker, conn, entry.msg, None)
        for conn in rel.take_expired_recvs(now):
            did = True
            self.stats.inc("recv_chains_expired")
            res = self._abort_recv_conn(worker, conn)
            if res is not None:
                yield from res
        return did
