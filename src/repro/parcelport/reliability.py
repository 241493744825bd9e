"""End-to-end reliability for parcelports under fault injection.

The paper's parcelports assume a lossless fabric: sender-side completion
is *local* (the NIC accepted the bytes) and nothing acknowledges that the
destination actually assembled the HPX message.  Under a
:class:`~repro.faults.FaultPlan` that assumption breaks, so both
``lci_pp`` and ``mpi_pp`` layer this small end-to-end protocol on top:

* every outgoing HPX message carries a per-locality **sequence number**
  in its header;
* the receiver acks each fully-assembled message (tag :data:`ACK_TAG`)
  and **dedups** replays by (source, seq) — re-acking duplicates so a
  lost ack cannot wedge the sender;
* the sender keeps an in-flight table keyed by seq with per-message
  deadlines (a lazy-deletion heap, O(log n) per event); an expired entry
  aborts its old connection chain and retransmits the whole message with
  the *same* seq over a fresh connection, backing off exponentially with
  deterministic jitter;
* after :attr:`~repro.faults.RetryPolicy.max_retries` retransmissions
  the message is reported to the parcel layer as failed — the action's
  future fails instead of the benchmark hanging;
* receiver-side chains whose sender gave up are reaped after an idle
  expiry, cancelling their posted receives (otherwise every abandoned
  chain leaks matching-table entries and completion objects).

The layer is only instantiated when the runtime has an active fault
injector (or is built with ``RunOptions(reliable=True)``); fault-free
runs never see it and stay byte-identical to the unreliable build.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..faults import ACK_TAG, RetryPolicy
from ..sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from ..hpx_rt.parcel import HpxMessage
    from ..sim.core import Simulator
    from .base import Connection

# ACK_TAG (= 2, below FIRST_DYNAMIC_TAG so it can never collide with a
# connection tag) is defined in repro.faults so the injector's
# credit-starvation mode can recognize acks; re-exported here because the
# parcelports treat this module as the protocol's home.
__all__ = ["ReliabilityLayer", "InFlight", "ACK_TAG"]


class InFlight:
    """Sender-side state of one unacknowledged HPX message."""

    __slots__ = ("seq", "msg", "conn", "attempts", "deadline", "credited")

    def __init__(self, seq: int, msg: "HpxMessage", conn: "Connection",
                 deadline: float):
        self.seq = seq
        self.msg = msg
        self.conn: Optional["Connection"] = conn
        self.attempts = 0          #: retransmissions performed so far
        self.deadline = deadline
        self.credited = False      #: holds one flow-control credit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<InFlight seq={self.seq} attempts={self.attempts} "
                f"deadline={self.deadline:.1f}>")


class ReliabilityLayer:
    """Per-parcelport retransmission/dedup state machine."""

    def __init__(self, sim: "Simulator", policy: RetryPolicy, rng,
                 stats: Optional[StatSet] = None, name: str = "rel"):
        self.sim = sim
        self.policy = policy
        self.rng = rng
        self.stats = stats if stats is not None else StatSet(name)
        self._seq = itertools.count()
        # sender side
        self._table: Dict[int, InFlight] = {}
        self._heap: List[Tuple[float, int]] = []
        # per-peer credit windows (flow control; 0 = disabled)
        self.credit_window = 0
        self._credits: Dict[int, int] = {}
        #: credit releases so far (acks and drops); the backlog pump
        #: rescans only after it moves
        self.credit_epoch = 0
        # receiver side
        self._seen: Set[Tuple[int, int]] = set()
        self._watched: Dict[int, "Connection"] = {}
        self._recv_heap: List[Tuple[float, int]] = []
        # span recorder + owning locality (wired by the parcelport)
        self.obs: Optional[Any] = None
        self.loc = -1

    # ------------------------------------------------------------------
    # credit-based flow control (piggybacked on the ack protocol)
    # ------------------------------------------------------------------
    def set_credit_window(self, window: int) -> None:
        """Enable per-peer credit windows of ``window`` messages (0 =
        unlimited).  A credit is consumed per fresh tracked send and
        replenished exactly once, when the message stops being tracked
        (end-to-end ack or terminal failure) — retransmissions reuse
        their original credit."""
        if window < 0:
            raise ValueError("credit window must be >= 0")
        self.credit_window = window

    def has_credit(self, peer: int) -> bool:
        """Non-consuming peek (used by the backlog pump to avoid
        inflating the stall counter on every poll)."""
        if not self.credit_window:
            return True
        return self._credits.get(peer, self.credit_window) > 0

    def consume_credit(self, peer: int) -> bool:
        """Take one credit for ``peer``; False (and a ``credit_stalls``
        count) if the window is exhausted."""
        if not self.credit_window:
            return True
        left = self._credits.get(peer, self.credit_window)
        if left <= 0:
            self.stats.inc("credit_stalls")
            return False
        self._credits[peer] = left - 1
        self.stats.inc("credits_consumed")
        return True

    def _release_credit(self, peer: int) -> None:
        if not self.credit_window:
            return
        left = self._credits.get(peer, self.credit_window)
        if left >= self.credit_window:
            raise RuntimeError(
                f"credit release beyond window for peer {peer}")
        self._credits[peer] = left + 1
        self.credit_epoch += 1
        self.stats.inc("credits_replenished")

    def credits_left(self, peer: int) -> int:
        return self._credits.get(peer, self.credit_window)

    def credit_gauges(self) -> Dict[int, int]:
        """Current credits per peer (only peers ever throttled appear)."""
        return dict(self._credits)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def next_deadline(self, attempts: int) -> float:
        """Absolute deadline for (re)transmission number ``attempts``."""
        p = self.policy
        base = p.timeout_us * (p.backoff ** attempts)
        jit = 1.0 + p.jitter * float(self.rng.random()) if p.jitter else 1.0
        return self.sim.now + base * jit

    def track(self, msg: "HpxMessage", conn: "Connection") -> InFlight:
        """Register (or re-attach, on retransmit) an outgoing message.

        A fresh message gets the next sequence number and an in-flight
        entry; a retransmitted one (``msg.seq`` already set) just points
        its existing entry at the new connection.
        """
        seq = msg.seq
        if seq is None:
            msg.seq = seq = next(self._seq)
        entry = self._table.get(seq)
        if entry is None:
            entry = InFlight(seq, msg, conn, self.next_deadline(0))
            # The submit path consumed this message's credit (if any);
            # the entry carries it until ack or terminal failure.
            entry.credited = getattr(msg, "credited", False)
            self._table[seq] = entry
            heapq.heappush(self._heap, (entry.deadline, seq))
            self.stats.inc("tracked_sends")
        else:
            entry.conn = conn
        return entry

    def note_local_done(self, conn: "Connection") -> None:
        """The local chain on ``conn`` finished; stop aborting it on
        retransmit (the connection may be recycled and reused)."""
        msg = conn.msg
        if msg is None or msg.seq is None:
            return
        entry = self._table.get(msg.seq)
        if entry is not None and entry.conn is conn:
            entry.conn = None

    def on_ack(self, seq: int) -> None:
        """End-to-end ack arrived: the message is delivered, stop tracking."""
        entry = self._table.pop(seq, None)
        if entry is not None:
            self.stats.inc("acks_received")
            if self.obs is not None:
                self.obs.instant("msg", "acked", loc=self.loc,
                                 mid=entry.msg.mid, seq=seq)
            if entry.credited:
                entry.credited = False
                self._release_credit(entry.msg.dest)
        else:
            self.stats.inc("acks_stale")

    def expedite(self, seq: Optional[int]) -> None:
        """Pull a tracked message's deadline to *now* (its chain failed
        outright, e.g. a corrupted-op error — no point waiting)."""
        if seq is None:
            return
        entry = self._table.get(seq)
        if entry is not None and entry.deadline > self.sim.now:
            entry.deadline = self.sim.now
            heapq.heappush(self._heap, (entry.deadline, seq))

    def deadline_due(self, now: float) -> bool:
        """True if :meth:`take_expired` or :meth:`take_expired_recvs`
        would return an entry at ``now``.

        Does the upkeep those scans do at their heap tops, in their
        order: drops the keys of acked or refreshed sends and re-arms the
        receive chains that are still active.  A False answer leaves both
        heaps as a pair of empty scans at ``now`` would; a True one stops
        at the live entry the scans then pop.
        """
        heap = self._heap
        while heap:
            deadline, seq = heap[0]
            if deadline > now:
                break
            entry = self._table.get(seq)
            if entry is not None and entry.deadline <= now:
                return True
            heapq.heappop(heap)               # acked, or refreshed
        recv_heap = self._recv_heap
        while recv_heap:
            deadline, cid = recv_heap[0]
            if deadline > now:
                break
            conn = self._watched.get(cid)
            if conn is not None:
                fresh = conn.last_active + self.policy.recv_expiry_us
                if fresh <= now:
                    return True
            heapq.heappop(recv_heap)
            if conn is not None:
                heapq.heappush(recv_heap, (fresh, cid))   # still active
        return False

    def take_expired(self, now: float,
                     limit: Optional[int] = None) -> List[InFlight]:
        """Pop up to ``limit`` entries whose deadline has passed (default:
        the policy's ``drain_limit``).

        Caller must either :meth:`reschedule` or :meth:`drop` each one
        (stale heap keys from acked/refreshed entries are skipped lazily).
        """
        if limit is None:
            limit = self.policy.drain_limit
        out: List[InFlight] = []
        while self._heap and len(out) < limit:
            deadline, seq = self._heap[0]
            if deadline > now:
                break
            heapq.heappop(self._heap)
            entry = self._table.get(seq)
            if entry is None:
                continue                      # acked; stale key
            if entry.deadline > now:
                continue                      # refreshed; live key re-pushed
            out.append(entry)
        return out

    def reschedule(self, entry: InFlight) -> None:
        """Arm the next deadline after a retransmission."""
        entry.deadline = self.next_deadline(entry.attempts)
        heapq.heappush(self._heap, (entry.deadline, entry.seq))

    def drop(self, entry: InFlight) -> None:
        """Stop tracking a failed message (retries exhausted)."""
        if self._table.pop(entry.seq, None) is not None and entry.credited:
            entry.credited = False
            self._release_credit(entry.msg.dest)

    @property
    def in_flight(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def is_dup(self, src: int, seq: int) -> bool:
        return (src, seq) in self._seen

    def record_delivery(self, src: int, seq: int) -> None:
        self._seen.add((src, seq))

    def watch_recv(self, conn: "Connection") -> None:
        """Track a receiver chain so it can be reaped if the sender quits."""
        conn.last_active = self.sim.now
        self._watched[conn.cid] = conn
        heapq.heappush(self._recv_heap,
                       (conn.last_active + self.policy.recv_expiry_us,
                        conn.cid))

    def touch_recv(self, conn: "Connection") -> None:
        conn.last_active = self.sim.now

    def unwatch_recv(self, conn: "Connection") -> None:
        self._watched.pop(conn.cid, None)

    def take_expired_recvs(self, now: float, limit: Optional[int] = None
                           ) -> List["Connection"]:
        """Receiver chains idle past the expiry window (to be aborted);
        ``limit`` defaults to the policy's ``drain_limit``."""
        if limit is None:
            limit = self.policy.drain_limit
        out: List["Connection"] = []
        while self._recv_heap and len(out) < limit:
            deadline, cid = self._recv_heap[0]
            if deadline > now:
                break
            heapq.heappop(self._recv_heap)
            conn = self._watched.get(cid)
            if conn is None:
                continue                      # finished; stale key
            fresh = conn.last_active + self.policy.recv_expiry_us
            if fresh > now:
                heapq.heappush(self._recv_heap, (fresh, cid))
                continue                      # still active; re-arm
            del self._watched[cid]
            out.append(conn)
        return out

    @property
    def watched_recvs(self) -> int:
        return len(self._watched)
