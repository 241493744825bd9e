"""The MPI parcelport (§3.1), improved and original variants.

Data path for one HPX message (sender):

1. draw a connection tag from the shared atomic counter (tag 0 is reserved
   for headers);
2. build the header message, piggybacking the non-zero-copy chunk and (in
   the improved variant) the transmission chunk when they fit;
3. ``MPI_Isend`` the header with tag 0, then each remaining chunk with the
   connection tag — one operation in flight at a time, advanced by
   background work testing the pending-connection list round-robin.

Receiver: one persistent ``MPI_Irecv`` with the maximum header size and
tag 0; background work tests it, decodes arrivals, creates receiver
connections and chains their chunk receives the same way.

The **original** variant (§3.1 "The original version") differs in exactly
the two ways the paper describes: a static 512-byte header buffer that can
piggyback only the non-zero-copy chunk, and a tag provider with
"tag release" messages from the receiver.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from ..hpx_rt.parcel import HpxMessage
from ..mpi_sim.comm import MpiComm
from ..mpi_sim.params import MAX_TAG, DEFAULT_MPI_PARAMS, MpiParams
from ..mpi_sim.request import ANY_SOURCE
from ..sim.primitives import SpinLock, TryLock
from .base import Connection, DetachedWorker, Parcelport
from .config import PPConfig
from .header import HEADER_BASE_BYTES, ORIGINAL_MAX_HEADER, plan_header
from .reliability import ACK_TAG
from .tagging import TagAllocator, TagProvider

if TYPE_CHECKING:  # pragma: no cover
    from ..hpx_rt.runtime import Locality

__all__ = ["MpiParcelport"]

#: MPI tag reserved for header messages.
HEADER_TAG = 0
#: MPI tag reserved for tag-release messages (original variant only).
RELEASE_TAG = 1

#: CPU cost to decode one header message.
HEADER_DECODE_US = 0.20


class MpiParcelport(Parcelport):
    """HPX's MPI parcelport on the simulated MPI library.

    Adaptive policies (``repro.adapt``) reach this parcelport through the
    aggregation hold in the shared parcel layer.  There is no pinned
    progress thread to switch (``reserves_progress_core`` is ``False``),
    so the progress knob is LCI-only.
    """

    reserves_progress_core = False  # no dedicated progress thread in MPI pp

    def __init__(self, locality: "Locality", config: Optional[PPConfig] = None,
                 mpi_params: MpiParams = DEFAULT_MPI_PARAMS,
                 scan_limit: int = 8):
        super().__init__(locality)
        self.config = config or PPConfig(backend="mpi")
        if self.config.backend != "mpi":
            raise ValueError("MpiParcelport needs an mpi config")
        self.original = self.config.mpi_variant == "original"
        self.mpi = MpiComm(self.sim, self.nic, rank=locality.lid,
                           params=mpi_params)
        self.scan_limit = scan_limit
        self.pending: Deque[Connection] = deque()
        self.pending_lock = SpinLock(
            self.sim, f"L{locality.lid}.mpi_pending",
            acquire_cost=self.cost.spinlock_acquire_us)
        self._header_guard = TryLock(self.sim, f"L{locality.lid}.hdr_guard")
        self._header_req = None
        self._release_req = None
        self._ack_req = None
        self._sys = DetachedWorker(locality, name="mpi_boot")
        if self.original:
            self.tag_provider = TagProvider(self.sim, MAX_TAG)
        else:
            self.tags = TagAllocator(self.sim, MAX_TAG)
        # Wake sleeping workers when timer-driven completions land
        # (rendezvous sends finishing after NIC drain).
        self.mpi.notify = locality.sched.notify
        self.mpi.obs = self.obs
        self.max_header = (ORIGINAL_MAX_HEADER if self.original
                           else self.cost.max_header_size)

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.process(self._boot(), name=f"L{self.locality.lid}.mpi_boot")

    def _boot(self):
        self._header_req = yield from self.mpi.irecv(
            self._sys, ANY_SOURCE, self.max_header, HEADER_TAG)
        if self.original:
            self._release_req = yield from self.mpi.irecv(
                self._sys, ANY_SOURCE, 16, RELEASE_TAG)
        if self.reliability is not None:
            self._ack_req = yield from self.mpi.irecv(
                self._sys, ANY_SOURCE, self.reliability.policy.ack_bytes,
                ACK_TAG)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send_message(self, worker, conn: Connection, msg: HpxMessage,
                     on_complete):
        cost = self.cost
        conn.reset()
        conn.msg = msg
        conn.on_complete = on_complete
        plan = plan_header(msg, self.max_header,
                           piggyback_trans=not self.original)
        conn.plan = plan.followups
        conn.piggy_bytes = plan.piggybacked_bytes
        if self.original:
            conn.tag = yield from self.tag_provider.draw(worker)
        else:
            raw = yield from self.tags.draw(worker)
            conn.tag = self.tags.tag(raw)
        if self.reliability is not None:
            # Fresh sends get a seq + in-flight entry; retransmits (seq
            # already set) just re-attach their entry to this connection.
            self.reliability.track(msg, conn)
            conn.seq = msg.seq
        if self.obs is not None:
            self.obs.instant("msg", "send", loc=self.locality.lid,
                             tid=worker.name, mid=msg.mid, dest=msg.dest,
                             proto="mpi", chunks=len(plan.followups),
                             bytes=msg.total_bytes)
        # Build the header: the improved variant allocates it dynamically,
        # the original uses a fixed 512 B stack buffer (no alloc, but the
        # full 512 B always go on the wire).
        header_size = ORIGINAL_MAX_HEADER if self.original \
            else plan.header_size
        if not self.original:
            yield worker.cpu(cost.alloc_us)
        yield worker.cpu(cost.memcpy_cost(plan.piggybacked_bytes))
        payload = ("hdr", msg, plan.followups, conn.tag,
                   plan.piggybacked_bytes, msg.seq)
        req = yield from self.mpi.isend(worker, msg.dest, header_size,
                                        HEADER_TAG, payload)
        conn.cur = req
        self.stats.inc("header_sends")
        yield from self._enqueue_pending(worker, conn)

    def _advance_sender(self, worker, conn: Connection):
        """Post the next follow-up send, or finish the chain.

        Completion of the in-flight operation is only ever *observed* via
        ``MPI_Test`` from background work (§3.1) — even eager sends that
        completed at post time wait for the next pending-list scan, which
        is exactly the big-lock round trip the paper's profiling blames.
        """
        if conn.finished_chunks:
            yield from self._finish(worker, conn)
            return
        kind, size = conn.plan[conn.stage]
        conn.stage += 1
        req = yield from self.mpi.isend(
            worker, conn.dest, size, conn.tag,
            payload=("chunk", kind, conn.msg.mid))
        conn.cur = req
        self.stats.inc("chunk_sends")
        if self.obs is not None:
            self.obs.instant("chunk", "posted", loc=self.locality.lid,
                             tid=worker.name, mid=conn.msg.mid, kind=kind,
                             size=size, stage=conn.stage)
        yield from self._enqueue_pending(worker, conn)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _handle_header(self, worker, value):
        cost = self.cost
        _kind, msg, followups, tag, piggy_bytes, seq = value
        yield worker.cpu(HEADER_DECODE_US)
        yield worker.cpu(cost.memcpy_cost(piggy_bytes))
        if not followups:
            yield from self._complete_receive(worker, msg, seq)
            if self.original and tag is not None:
                # Even a duplicate delivery releases its tag: every header
                # (retransmissions included) consumed one draw.
                yield from self._send_release(worker, msg.src, tag)
            return
        conn = Connection(msg.src, "recv", next(self._conn_ids))
        conn.msg = msg
        conn.plan = list(followups)
        conn.tag = tag
        conn.src = msg.src
        conn.seq = seq
        if self.reliability is not None and seq is not None:
            self.reliability.watch_recv(conn)
        yield worker.cpu(cost.alloc_us)  # receiver connection object
        self.stats.inc("recv_connections")
        yield from self._advance_receiver(worker, conn)

    def _advance_receiver(self, worker, conn: Connection):
        """Post the next chunk receive, or deliver the finished message.

        Like the sender side, completion is only observed through the
        pending-list ``MPI_Test`` scans of background work.
        """
        if conn.finished_chunks:
            if self.reliability is not None:
                self.reliability.unwatch_recv(conn)
            yield from self._complete_receive(worker, conn.msg, conn.seq)
            if self.original:
                yield from self._send_release(worker, conn.src, conn.tag)
            return
        if self.reliability is not None and conn.seq is not None:
            self.reliability.touch_recv(conn)
        kind, size = conn.plan[conn.stage]
        conn.stage += 1
        req = yield from self.mpi.irecv(worker, conn.src, size, conn.tag)
        conn.cur = req
        self.stats.inc("chunk_recvs")
        if self.obs is not None:
            self.obs.instant("chunk", "recv_posted",
                             loc=self.locality.lid, tid=worker.name,
                             mid=conn.msg.mid, kind=kind, size=size,
                             stage=conn.stage)
        yield from self._enqueue_pending(worker, conn)

    def _send_release(self, worker, dst: int, tag: int):
        """Original variant: tell the sender its tag is free again."""
        yield from self.mpi.isend(worker, dst, 16, RELEASE_TAG,
                                  payload=("tag_release", tag))
        self.stats.inc("tag_releases_sent")

    # ------------------------------------------------------------------
    # reliability hooks (active only under fault injection)
    # ------------------------------------------------------------------
    def _send_ack(self, worker, dst: int, seq: int):
        """End-to-end ack: a small eager isend (fire-and-forget)."""
        yield from self.mpi.isend(worker, dst,
                                  self.reliability.policy.ack_bytes,
                                  ACK_TAG, payload=("ack", seq))
        self.stats.inc("ack_sends")

    def _abort_send_conn(self, worker, conn: Connection):
        super()._abort_send_conn(worker, conn)
        if conn.cur is not None:
            # Withdraw the in-flight op so a pending rendezvous handshake
            # (CTS for a cancelled send) is ignored by the receiver side.
            self.mpi.cancel(conn.cur)
            conn.cur = None
        return None

    def _abort_recv_conn(self, worker, conn: Connection):
        conn.aborted = True
        if self.reliability is not None:
            self.reliability.unwatch_recv(conn)
        if conn.cur is not None:
            self.mpi.cancel(conn.cur)
            conn.cur = None
        if self.original and conn.tag is not None:
            # The sender's tag was consumed by this connection attempt.
            return self._send_release(worker, conn.src, conn.tag)
        return None

    def _handle_op_error(self, worker, conn: Connection):
        """A chunk op completed with a transport error (corruption)."""
        self.stats.inc("op_errors")
        conn.aborted = True
        if conn.role == "recv":
            if self.reliability is not None:
                self.reliability.unwatch_recv(conn)
            if self.original:
                yield from self._send_release(worker, conn.src, conn.tag)
        else:
            # Sender chain is dead; no point waiting out the full timeout.
            if self.reliability is not None and conn.msg is not None:
                self.reliability.expedite(conn.msg.seq)

    # ------------------------------------------------------------------
    # background work (§3.1 "Threads and background work")
    # ------------------------------------------------------------------
    def background_work(self, worker, rounds=None):
        """Generator → bool: up to ``poll_rounds`` background slices.

        One generator for the whole call rather than one per round.  The
        sub-polls that yield nothing and charge nothing when idle
        (pending scan, flow pump) are skipped at the call site, so an idle
        round builds no generator for them.  The reliability poll charges
        its cost here and builds the expiry generator only when a
        deadline is due; the flow pump also waits for a returned credit
        while no accept-waiter is registered.
        """
        did_any = False
        idle_rounds = 0
        rel = self.reliability
        for _ in range(rounds if rounds is not None else self.poll_rounds):
            yield worker.cpu(self.cost.background_call_us)
            did = False
            # (a) check the persistent header receive for new parcels.
            # Only one thread decodes headers at a time, but every other
            # polling thread still enters MPI_Test — i.e. takes the big
            # progress lock for a bare progress pass.  That contention is
            # the §5 profiling result ("spinning on the blocking lock of
            # ucp_progress").
            if self._header_guard.try_acquire():
                try:
                    did = (yield from self._check_header(worker)) or did
                    if self.original:
                        did = (yield from self._check_release(worker)) or did
                    if self.reliability is not None:
                        did = (yield from self._check_ack(worker)) or did
                finally:
                    self._header_guard.release()
            else:
                yield from self.mpi.progress_only(worker)
            # (b) round-robin over the pending connection list
            if self.pending:
                did = (yield from self._scan_pending(worker)) or did
            if rel is not None:
                # the scans get the poll's start time
                now = self.sim.now
                yield worker.cpu(rel.policy.poll_cost_us)
                if rel.deadline_due(now):
                    did = (yield from self._reliability_expire(worker, now)) \
                        or did
            # A backlog (only a credit window makes one) that drained
            # nothing stays undrainable until a credit returns
            # (Parcelport._flow_pump has the argument).
            if self.flow is not None and (
                    self._accept_waiters
                    or (self._backlog_total
                        and rel.credit_epoch != self._futile_epoch)):
                did = (yield from self._flow_pump(worker)) or did
            if did:
                did_any = True
                idle_rounds = 0
            else:
                idle_rounds += 1
                if idle_rounds >= 2:
                    break
        return did_any

    def _check_header(self, worker):
        req = self._header_req
        if req is None:
            return False
        done = yield from self.mpi.test(worker, req)
        if not done:
            return False
        value = req.value
        err = req.error
        # Repost before decoding so back-to-back headers keep flowing.
        self._header_req = yield from self.mpi.irecv(
            worker, ANY_SOURCE, self.max_header, HEADER_TAG)
        if err is not None:
            # Corrupted header: drop it, sender retransmits.
            self.stats.inc("header_recv_errors")
            return True
        yield from self._handle_header(worker, value)
        self.stats.inc("headers_received")
        return True

    def _check_release(self, worker):
        req = self._release_req
        if req is None:
            return False
        done = yield from self.mpi.test(worker, req)
        if not done:
            return False
        value = req.value
        err = req.error
        self._release_req = yield from self.mpi.irecv(
            worker, ANY_SOURCE, 16, RELEASE_TAG)
        if err is not None:
            self.stats.inc("release_recv_errors")
            return True
        _kind, tag = value
        yield from self.tag_provider.release(worker, tag)
        self.stats.inc("tag_releases_received")
        return True

    def _check_ack(self, worker):
        req = self._ack_req
        if req is None:
            return False
        done = yield from self.mpi.test(worker, req)
        if not done:
            return False
        value = req.value
        err = req.error
        self._ack_req = yield from self.mpi.irecv(
            worker, ANY_SOURCE, self.reliability.policy.ack_bytes, ACK_TAG)
        if err is not None:
            # Corrupted ack: the sender re-acks on the retransmit.
            self.stats.inc("ack_recv_errors")
            return True
        _kind, seq = value
        self.reliability.on_ack(seq)
        return True

    def _scan_pending(self, worker):
        if not self.pending:
            return False
        t0 = self.sim.now
        yield self.pending_lock.acquire()    # inlined worker.lock()
        worker.lock_acquired(self.pending_lock, t0)
        batch = []
        for _ in range(min(self.scan_limit, len(self.pending))):
            batch.append(self.pending.popleft())
        self.pending_lock.release()
        did = False
        keep = []
        for conn in batch:
            if conn.aborted:
                # Chain withdrawn by the reliability layer: drop it from
                # the pending list (its op was cancelled).
                did = True
                if conn.cur is not None:
                    self.mpi.cancel(conn.cur)
                    conn.cur = None
                self.stats.inc("aborted_completions")
                continue
            req = conn.cur
            done = yield from self.mpi.test(worker, req)
            if conn.aborted:
                # Withdrawn while we were inside MPI_Test (the reliability
                # poll on another thread): drop it, like the branch above.
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
            t0 = self.sim.now
            yield self.pending_lock.acquire()
            worker.lock_acquired(self.pending_lock, t0)
            self.pending.extend(keep)
            self.pending_lock.release()
        return did

    def _enqueue_pending(self, worker, conn: Connection):
        yield from worker.lock(self.pending_lock)
        self.pending.append(conn)
        self.pending_lock.release()
