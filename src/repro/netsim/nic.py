"""NIC model: TX pipeline, RX ring, arrival notification.

The TX side is a serializing pipeline (:class:`~repro.sim.primitives.
SerialResource`): each message occupies it for ``tx_overhead + size/BW`` µs,
which yields both a per-message rate ceiling and bandwidth sharing between
concurrent senders on the same node — the two first-order NIC effects the
paper's workloads exercise.

The RX side is a ring of delivered descriptors.  Hardware deposits messages
into the ring; *software* (a progress engine) must drain it, paying
``rx_overhead_us`` per message.  ``arrival_event`` lets a dedicated progress
thread sleep until traffic arrives instead of burning simulated polls.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from ..sim.core import Event, Simulator
from ..sim.primitives import SerialResource
from ..sim.stats import StatSet
from .message import NetMsg
from .params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import Fabric

__all__ = ["Nic"]


class Nic:
    """One network interface attached to a node."""

    __slots__ = ("sim", "node_id", "params", "fabric", "tx", "rx_rings",
                 "_arrival_waiters", "stats", "on_deliver", "obs")

    def __init__(self, sim: Simulator, node_id: int, params: NetworkParams):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric: Optional["Fabric"] = None
        self.tx = SerialResource(sim, f"nic{node_id}.tx")
        #: one RX ring per virtual channel (grown on demand); single-device
        #: endpoints only ever touch ring 0 via the ``rx_ring`` alias
        self.rx_rings: list = [deque()]
        self._arrival_waiters: Deque[Event] = deque()
        self.stats = StatSet(f"nic{node_id}")
        #: optional synchronous hook invoked on each delivery (used by the
        #: locality scheduler to wake an idle worker — models HPX's polling
        #: noticing traffic without simulating every idle spin).
        self.on_deliver = None
        #: span recorder (None => tracing off, zero overhead)
        self.obs = None

    # -- send side ---------------------------------------------------------
    def post_send(self, msg: NetMsg) -> float:
        """Post ``msg`` for transmission; returns the CPU cost (µs) the
        *calling thread* must charge itself for the doorbell.

        The message leaves the NIC after queueing + TX service, then arrives
        at the destination RX ring one wire latency later.  Fire-and-forget:
        local completion semantics are the communication library's business.
        """
        assert self.fabric is not None, "NIC not attached to a fabric"
        msg.msg_id = next(self.fabric.msg_ids)
        msg.inject_t = self.sim.now
        stats = self.stats
        stats.counters["tx_msgs"] += 1
        stats.accum["tx_bytes"] += msg.size
        done_t = self.tx.finish_time(self.params.tx_time(msg.size))
        self.fabric.transmit(msg, done_t)
        return self.params.post_cost_us

    def tx_complete_event(self, msg: NetMsg) -> Event:
        """Event firing when ``msg``'s TX (local DMA read) would complete.

        Used for rendezvous data where the sender buffer is reusable only
        after the NIC has read it.
        """
        # The TX resource watermark already includes msg; fire then.
        return self.sim.timeout(max(0.0, self.tx.busy_until - self.sim.now))

    # -- receive side --------------------------------------------------------
    @property
    def rx_ring(self) -> Deque[NetMsg]:
        """Ring 0 (the only ring for single-device endpoints)."""
        return self.rx_rings[0]

    def ensure_vchans(self, n: int) -> None:
        """Grow to at least ``n`` RX rings (multi-device endpoints)."""
        while len(self.rx_rings) < n:
            self.rx_rings.append(deque())

    def deliver(self, msg: NetMsg, redelivery: bool = False) -> None:
        """Called by the fabric when ``msg`` lands in our RX ring.

        ``redelivery`` marks a message re-entering after a deferral, so
        per-message holds (slow-receiver delays) never compound.
        """
        if self.fabric is not None and self.fabric.injector is not None:
            inj = self.fabric.injector
            until = inj.deferred_until(msg, self.node_id, self.sim.now,
                                       redelivery=redelivery)
            if until > self.sim.now:
                # Deferred (NIC stall, slow receiver or ack starvation):
                # the descriptor sits in hardware until the hold ends
                # (ordering preserved — deferred events re-enter the
                # schedule in original sequence).
                self.sim.schedule_call(
                    until - self.sim.now,
                    lambda: self.deliver(msg, redelivery=True))
                return
        msg.arrive_t = self.sim.now
        if self.obs is not None:
            self.obs.wire_arrival(msg, self.node_id)
        self.ensure_vchans(msg.vchan + 1)
        self.rx_rings[msg.vchan].append(msg)
        stats = self.stats
        stats.counters["rx_msgs"] += 1
        stats.accum["rx_bytes"] += msg.size
        while self._arrival_waiters:
            self._arrival_waiters.popleft().succeed()
        if self.on_deliver is not None:
            self.on_deliver()

    def poll_rx(self, vchan: int = 0) -> Optional[NetMsg]:
        """Drain one descriptor (caller charges itself ``rx_overhead_us``)."""
        if vchan >= len(self.rx_rings):
            return None
        ring = self.rx_rings[vchan]
        return ring.popleft() if ring else None

    def rx_pending(self, vchan: Optional[int] = None) -> int:
        if vchan is not None:
            return len(self.rx_rings[vchan]) \
                if vchan < len(self.rx_rings) else 0
        return sum(len(r) for r in self.rx_rings)

    def arrival_event(self) -> Event:
        """Event that fires at the next message arrival (or now if pending)."""
        ev = Event(self.sim)
        if self.rx_pending():
            ev.succeed()
        else:
            self._arrival_waiters.append(ev)
        return ev
