"""The simulated MPI library: two-sided messaging over one coarse lock.

Semantics follow MPI_THREAD_MULTIPLE OpenMPI-over-UCX as the paper's
profiling describes it (§5, §7.1):

* **one coarse-grained blocking progress lock** guards the entire engine;
  ``isend``, ``irecv`` and ``test`` all take it, so concurrent callers
  convoy — with many worker threads this lock *is* the bottleneck;
* eager messages below :attr:`MpiParams.eager_threshold` are buffered
  (memcpy both sides when unexpected), larger transfers use an RTS/CTS
  rendezvous driven by the progress engine;
* tag matching linearly scans the posted-receive list, and unexpected
  messages are buffered with an allocation + copy and taxed on every
  progress call — the sources of MPI's collapse under many concurrent
  messages.

All public operations are generators to be driven from a worker context:
``req = yield from comm.isend(worker, dst, size, tag, payload)``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..faults import TransportError
from ..netsim.message import NetMsg
from ..obs.spans import payload_mid
from ..netsim.nic import Nic
from ..sim.core import Simulator
from ..sim.primitives import SpinLock
from ..sim.stats import StatSet
from .matching import PostedQueue, UnexpectedQueue
from .params import DEFAULT_MPI_PARAMS, MpiParams
from .request import Request

__all__ = ["MpiComm"]


class MpiComm:
    """One rank's endpoint of the simulated MPI library."""

    def __init__(self, sim: Simulator, nic: Nic, rank: int,
                 params: MpiParams = DEFAULT_MPI_PARAMS):
        self.sim = sim
        self.nic = nic
        self.rank = rank
        self.params = params
        self.progress_lock = SpinLock(sim, f"mpi{rank}.progress",
                                      acquire_cost=params.lock_acquire_us)
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        self.unexpected_bytes = 0
        #: buffered RTS entries awaiting a matching receive — UCX revisits
        #: its pending-rendezvous queue on *every* progress call
        self.pending_rts = 0
        self.stats = StatSet(f"mpi{rank}")
        #: optional callable invoked when a request completes off the
        #: caller's path (timer-driven rendezvous completions) — used to
        #: wake idle workers so completions are observed promptly.
        self.notify = None
        #: span recorder (None => tracing off, zero overhead)
        self.obs = None

    def _obs_lock_span(self, worker, t_req: float, t_acq: float) -> None:
        """One ``progress/mpi`` hold span: [acquire, release] of the big
        progress lock, with the preceding wait as a field — together they
        cover the caller's whole trip through the engine (the convoy the
        paper profiles)."""
        self.obs.complete("progress", "mpi", t_acq, self.sim.now,
                          loc=self.rank, tid=worker.name,
                          wait_us=t_acq - t_req)

    # ------------------------------------------------------------------
    # public API (generators, worker context)
    # ------------------------------------------------------------------
    def isend(self, worker, dst: int, size: int, tag: int,
              payload: Any = None):
        """Generator → :class:`Request`. Nonblocking send."""
        p = self.params
        req = Request("send", dst, size, tag)
        req.posted_t = self.sim.now
        t_req = self.sim.now
        yield from worker.lock(self.progress_lock)
        t_acq = self.sim.now
        yield worker.cpu(p.post_op_us)
        wire_size = size + p.wire_header_bytes
        if size <= p.eager_threshold:
            # Eager: copy into a bounce buffer, inject, complete locally.
            yield worker.cpu(size * p.memcpy_per_byte_us)
            post_cost = self.nic.post_send(NetMsg(
                src=self.rank, dst=dst, size=wire_size, kind="mpi_eager",
                tag=tag, payload=payload))
            yield worker.cpu(post_cost)
            self._complete(req)
            self.stats.inc("eager_sends")
        else:
            # Rendezvous: RTS carries the send request so the CTS can
            # find it without any matching on the sender side.  The user
            # payload rides on the request until the data message goes out.
            req.value = payload
            post_cost = self.nic.post_send(NetMsg(
                src=self.rank, dst=dst, size=p.wire_header_bytes,
                kind="mpi_rts", tag=tag, payload=(req, size, payload)))
            yield worker.cpu(post_cost)
            self.stats.inc("rndv_sends")
        if self.obs is not None:
            self._obs_lock_span(worker, t_req, t_acq)
        self.progress_lock.release()
        return req

    def irecv(self, worker, src: int, size: int, tag: int, ctx: Any = None):
        """Generator → :class:`Request`. Nonblocking receive.

        ``src`` may be :data:`ANY_SOURCE`, ``tag`` may be :data:`ANY_TAG`.
        Checks the unexpected queue first (linear scan), then posts.
        """
        p = self.params
        req = Request("recv", src, size, tag, ctx=ctx)
        req.posted_t = self.sim.now
        t_req = self.sim.now
        yield from worker.lock(self.progress_lock)
        t_acq = self.sim.now
        yield worker.cpu(p.post_op_us)
        entry, scanned = self._match_unexpected(src, tag)
        if scanned:
            yield worker.cpu(scanned * p.unexpected_scan_us)
        if entry is not None:
            if entry.kind == "mpi_eager":
                # Second copy: bounce buffer -> user buffer.
                yield worker.cpu(entry.size * p.memcpy_per_byte_us)
                req.value = entry.payload
                self._complete(req)
                self.stats.inc("unexpected_matches")
            else:  # buffered RTS
                sreq, dsize, payload = entry.payload
                yield from self._send_cts(worker, entry.src, sreq, req)
        else:
            self.posted.append(req)
        if self.obs is not None:
            self._obs_lock_span(worker, t_req, t_acq)
        self.progress_lock.release()
        return req

    def test(self, worker, req: Request):
        """Generator → bool. MPI_Test: runs the progress engine, then checks.

        This is the call the paper's profiling found ``mpi_i`` spending
        "the vast majority of time" in: every invocation takes the big
        lock and polls.
        """
        t_req = self.sim.now
        # Inlined worker.lock() + the empty-ring progress fast path: the
        # overwhelmingly common idle poll runs in this one generator
        # (identical events and charges; see docs/PERFORMANCE.md).
        yield self.progress_lock.acquire()
        worker.lock_acquired(self.progress_lock, t_req)
        t_acq = self.sim.now
        p = self.params
        if not self.nic.rx_ring:
            self.stats.counters["progress_calls"] += 1
            yield worker.cpu(p.progress_base_us * 0.25
                             + self.pending_rts * p.unexpected_tax_per_entry_us)
        else:
            yield from self._progress_locked(worker)
        done = req.done
        if self.obs is not None:
            self._obs_lock_span(worker, t_req, t_acq)
        self.progress_lock.release()
        return done

    def progress_only(self, worker):
        """Generator. A bare progress pass (what every polling thread's
        ``MPI_Test`` amounts to when it has no request of its own): take
        the big lock, poll, release.  Under traffic this is where the
        convoy forms."""
        t_req = self.sim.now
        # Inlined worker.lock() + empty-ring fast path, as in test().
        yield self.progress_lock.acquire()
        worker.lock_acquired(self.progress_lock, t_req)
        t_acq = self.sim.now
        p = self.params
        if not self.nic.rx_ring:
            self.stats.counters["progress_calls"] += 1
            yield worker.cpu(p.progress_base_us * 0.25
                             + self.pending_rts * p.unexpected_tax_per_entry_us)
        else:
            yield from self._progress_locked(worker)
        if self.obs is not None:
            self._obs_lock_span(worker, t_req, t_acq)
        self.progress_lock.release()

    # ------------------------------------------------------------------
    # progress engine (must hold the lock)
    # ------------------------------------------------------------------
    def _progress_locked(self, worker):
        p = self.params
        net = self.nic.params
        self.stats.counters["progress_calls"] += 1
        if not self.nic.rx_ring:
            # Nothing new on the wire: a quick queue check.  Buffered
            # eager messages are not re-walked, but UCX does revisit its
            # pending-rendezvous queue every call — with many concurrent
            # rendezvous in flight this is what each MPI_Test "spins" on.
            yield worker.cpu(p.progress_base_us * 0.25
                             + self.pending_rts * p.unexpected_tax_per_entry_us)
            return
        tax = (p.progress_base_us
               + self.unexpected_bytes * p.unexpected_tax_per_byte_us
               + len(self.unexpected) * p.unexpected_tax_per_entry_us)
        yield worker.cpu(tax)
        for _ in range(p.progress_batch):
            msg = self.nic.poll_rx()
            if msg is None:
                break
            yield worker.cpu(net.rx_overhead_us)
            if self.obs is not None:
                mid, part = payload_mid(msg.kind, msg.payload)
                self.obs.instant("progress", "poll", loc=self.rank,
                                 tid=worker.name, msg_id=msg.msg_id,
                                 mid=mid, part=part, kind=msg.kind,
                                 rx_wait=self.sim.now - msg.arrive_t)
            kind = msg.kind
            if msg.corrupted:
                yield from self._handle_corrupted(worker, msg)
                continue
            if kind == "mpi_eager":
                req, scanned = self._match_posted(msg.src, msg.tag)
                if scanned:
                    yield worker.cpu(scanned * p.match_scan_us)
                if req is not None:
                    yield worker.cpu(msg.size * p.memcpy_per_byte_us)
                    req.value = msg.payload
                    self._complete(req)
                    self.stats.inc("eager_recvs")
                else:
                    yield worker.cpu(p.unexpected_alloc_us
                                     + msg.size * p.memcpy_per_byte_us)
                    self.unexpected.append(msg)
                    self.unexpected_bytes += msg.size
                    self.stats.inc("unexpected_msgs")
            elif kind == "mpi_rts":
                sreq, dsize, payload = msg.payload
                req, scanned = self._match_posted(msg.src, msg.tag)
                if scanned:
                    yield worker.cpu(scanned * p.match_scan_us)
                if req is not None:
                    yield from self._send_cts(worker, msg.src, sreq, req)
                else:
                    self.unexpected.append(msg)
                    self.unexpected_bytes += p.wire_header_bytes
                    self.pending_rts += 1
                    self.stats.inc("unexpected_rts")
            elif kind == "mpi_cts":
                # Arrives at the *sender*.  UCX pipelined rendezvous: the
                # data is staged through pre-registered bounce buffers in
                # fragments, each copied on the send side here and again on
                # the receive side — the "protocol switch" the paper blames
                # for mpi_i's large-message latencies.
                sreq, rreq = msg.payload
                if sreq.cancelled:
                    # The sender withdrew this rendezvous (aborted chain
                    # under fault recovery): don't stream data for it.
                    self.stats.inc("cts_for_cancelled")
                    continue
                yield worker.cpu(net.rndv_handshake_us)
                total = sreq.size
                nfrag = max(1, -(-total // p.rndv_frag_bytes))
                sent = 0
                for i in range(nfrag):
                    frag = min(p.rndv_frag_bytes, total - sent)
                    sent += frag
                    yield worker.cpu(frag * p.memcpy_per_byte_us)
                    last = i == nfrag - 1
                    post_cost = self.nic.post_send(NetMsg(
                        src=self.rank, dst=msg.src,
                        size=frag + p.wire_header_bytes, kind="mpi_data",
                        tag=sreq.tag,
                        payload=(sreq.value if last else None, rreq, last)))
                    yield worker.cpu(post_cost)
                # The send request completes once the NIC drained the last
                # bounce buffer; observed by a later test().
                done_in = max(0.0, self.nic.tx.busy_until - self.sim.now)
                self.sim.schedule_call1(done_in, self._complete, sreq)
                self.stats.inc("cts_handled")
            elif kind == "mpi_data":
                payload, rreq, last = msg.payload
                # copy out of the bounce buffer into the user buffer
                yield worker.cpu(msg.size * p.memcpy_per_byte_us)
                self.stats.inc("rndv_frags")
                if last:
                    yield worker.cpu(net.rndv_handshake_us)
                    rreq.value = payload
                    self._complete(rreq)
                    self.stats.inc("rndv_recvs")
            else:  # pragma: no cover - guarded by construction
                raise ValueError(f"unknown MPI wire message {kind!r}")

    def _handle_corrupted(self, worker, msg: NetMsg):
        """A wire message that failed its (modelled) integrity check.

        Matched receives complete with :attr:`Request.error` set (a
        simulated transport error the caller observes after ``test``);
        control traffic and unmatched arrivals are discarded — corrupted
        messages never enter the unexpected queue.
        """
        p = self.params
        yield worker.cpu(p.progress_base_us * 0.5)  # checksum verify
        kind = msg.kind
        if kind == "mpi_eager":
            req, scanned = self._match_posted(msg.src, msg.tag)
            if scanned:
                yield worker.cpu(scanned * p.match_scan_us)
            if req is not None:
                req.error = TransportError(
                    f"corrupted eager message tag={msg.tag}")
                self._complete(req)
                self.stats.inc("corrupt_errored")
                return
        elif kind == "mpi_data":
            _payload, rreq, _last = msg.payload
            if not rreq.done:
                rreq.error = TransportError(
                    f"corrupted rendezvous fragment tag={msg.tag}")
                self._complete(rreq)
                self.stats.inc("corrupt_errored")
                return
        self.stats.inc("corrupt_discarded")

    def cancel(self, req: Request) -> bool:
        """MPI_Cancel (simplified): withdraw a request.

        Posted receives are removed from the matching list; the request
        completes immediately with ``cancelled`` set.  Already-complete
        requests are left untouched (returns False), matching MPI's
        "cancel either succeeds or the operation completes" contract.
        Pure bookkeeping — no simulated cost, callable from any context.
        """
        if req.done:
            return False
        req.cancelled = True
        if req.kind == "recv":
            try:
                self.posted.remove(req)
            except ValueError:
                pass
        req.done = True
        req.complete_t = self.sim.now
        self.stats.inc("cancelled")
        return True

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send_cts(self, worker, dst: int, sreq: Request, rreq: Request):
        p = self.params
        net = self.nic.params
        yield worker.cpu(net.rndv_handshake_us)
        post_cost = self.nic.post_send(NetMsg(
            src=self.rank, dst=dst, size=p.wire_header_bytes,
            kind="mpi_cts", tag=sreq.tag, payload=(sreq, rreq)))
        yield worker.cpu(post_cost)
        self.stats.inc("cts_sent")

    def _match_posted(self, src: int, tag: int
                      ) -> Tuple[Optional[Request], int]:
        """First posted receive matching (src, tag) plus the scanned count
        the seed's linear scan would have charged (indexed; see
        repro.mpi_sim.matching)."""
        return self.posted.match_pop(src, tag)

    def _match_unexpected(self, src: int, tag: int
                          ) -> Tuple[Optional[NetMsg], int]:
        """Pop the oldest unexpected (src, tag) match, if any."""
        msg, scanned = self.unexpected.match_pop(src, tag)
        if msg is not None:
            if msg.kind == "mpi_eager":
                self.unexpected_bytes -= msg.size
            else:
                self.unexpected_bytes -= self.params.wire_header_bytes
                self.pending_rts -= 1
        return msg, scanned

    def _complete(self, req: Request) -> None:
        if not req.done:
            req.done = True
            req.complete_t = self.sim.now
            if self.notify is not None:
                self.notify()

    # -- introspection ---------------------------------------------------
    @property
    def posted_count(self) -> int:
        return len(self.posted)

    @property
    def unexpected_count(self) -> int:
        return len(self.unexpected)
