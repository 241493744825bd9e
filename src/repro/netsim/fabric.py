"""The interconnect: moves messages between NICs with wire latency.

The fabric is a full crossbar (non-blocking switch, as both Expanse's and
Rostam's fat-tree InfiniBand effectively are at the 2–32 node scale of the
paper's runs): the only shared bottlenecks are the per-node NICs themselves.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, TYPE_CHECKING

from ..sim.core import Simulator
from ..sim.stats import StatSet
from .message import NetMsg
from .nic import Nic
from .params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector

__all__ = ["Fabric"]


class Fabric:
    """A set of NICs joined by constant-latency links."""

    def __init__(self, sim: Simulator, params: NetworkParams):
        self.sim = sim
        self.params = params
        self.nics: Dict[int, Nic] = {}
        self.stats = StatSet("fabric")
        #: optional fault injector consulted on every transmit; None (the
        #: default) keeps the fabric byte-identical to a fault-free build
        self.injector: Optional["FaultInjector"] = None
        #: span recorder (None => tracing off, zero overhead)
        self.obs = None
        #: wire message ids (``NetMsg.msg_id``), stamped at post time:
        #: owned per fabric, so a rerun in one process numbers its
        #: messages, and so traces them, identically
        self.msg_ids = itertools.count()
        #: per-source delivery sequence counters: the intrinsic half of the
        #: (time, src, per-src seq) delivery tie-break key (see
        #: :data:`repro.sim.core.DELIVERY`)
        self._dseq: Dict[int, int] = {}

    def add_node(self, node_id: int) -> Nic:
        """Create and attach the NIC for ``node_id``."""
        if node_id in self.nics:
            raise ValueError(f"node {node_id} already attached")
        nic = Nic(self.sim, node_id, self.params)
        nic.fabric = self
        self.nics[node_id] = nic
        return nic

    def nic(self, node_id: int) -> Nic:
        return self.nics[node_id]

    def transmit(self, msg: NetMsg, tx_done_t: float) -> None:
        """Schedule delivery of ``msg`` at the destination NIC.

        ``tx_done_t`` is the absolute time the source NIC finishes serializing
        the message; the wire adds ``wire_latency_us`` (loopback messages skip
        the wire but still pay TX serialization).
        """
        dst = self.nics.get(msg.dst)
        if dst is None:
            raise KeyError(f"no NIC for destination node {msg.dst}")
        stats = self.stats
        stats.counters["msgs"] += 1
        stats.accum["bytes"] += msg.size
        src = msg.src
        dseq = self._dseq
        n = dseq.get(src, 0)
        dseq[src] = n + 1
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
        self.sim.schedule_delivery(tx_done_t + wire - self.sim.now,
                                   dst.deliver, msg, (src, n))

    def node_ids(self) -> List[int]:
        return sorted(self.nics)
