"""Wire-level message descriptors.

A :class:`NetMsg` is what a NIC actually moves: an opaque payload plus the
handful of header fields the communication libraries above need (kind, tag,
size).  Payload *content* is carried by reference — only sizes cost time.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["NetMsg"]


class NetMsg:
    """One message in flight on the fabric.

    A hand-slotted record (two NetMsg constructions per simulated wire
    message make this a hot allocation site; ``__slots__`` plus a plain
    ``__init__`` beat the seed's dataclass with its ``default_factory``).
    Messages compare by identity: field equality never held between
    distinct messages anyway, since each posted one gets its own
    ``msg_id``.

    Attributes
    ----------
    src, dst:
        Node ids (== NIC ids; one NIC per node in this model).
    size:
        Bytes on the wire (headers included).
    kind:
        Library-level discriminator (e.g. ``"eager"``, ``"rts"``, ``"cts"``,
        ``"rdma"``, ``"put"``); interpreted by the receiving library.
    tag:
        Matching tag for two-sided traffic (None for one-sided).
    payload:
        Arbitrary reference-carried data (never copied; copies are costed
        explicitly by the layers that perform them).
    vchan:
        Virtual channel / hardware queue pair: multi-device endpoints
        (the paper's §7.2 future work) keep their traffic separated here.
    msg_id:
        Wire id, the key of a message's trace flow arrow: stamped by
        :meth:`~repro.netsim.nic.Nic.post_send` from the fabric's per-run
        counter (-1 until posted).
    corrupted:
        Set by the fault injector: the message arrives, but its payload is
        garbage — the receiving library surfaces an error status instead
        of completing the matched operation normally.
    """

    __slots__ = ("src", "dst", "size", "kind", "tag", "payload", "vchan",
                 "msg_id", "inject_t", "arrive_t", "corrupted")

    def __init__(self, src: int, dst: int, size: int, kind: str,
                 tag: Optional[int] = None, payload: Any = None,
                 vchan: int = 0,
                 inject_t: float = 0.0, arrive_t: float = 0.0,
                 corrupted: bool = False):
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.tag = tag
        self.payload = payload
        self.vchan = vchan
        self.msg_id = -1
        self.inject_t = inject_t
        self.arrive_t = arrive_t
        self.corrupted = corrupted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " CORRUPT" if self.corrupted else ""
        return (f"<NetMsg#{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.size}B tag={self.tag}{flag}>")
