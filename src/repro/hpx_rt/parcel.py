"""Parcels and serialized HPX messages.

Terminology follows §2.2 of the paper exactly:

* a **parcel** is one action invocation (action id + arguments + metadata);
* an **HPX message** is the serialized form of one *or more* parcels headed
  to the same destination locality, consisting of

  - one **non-zero-copy chunk** (all small arguments + parcel metadata),
  - zero or more **zero-copy chunks** (each one large argument, i.e. an
    argument of at least the zero-copy serialization threshold), and
  - a **transmission chunk** (argument index/length table), present only
    when there is at least one zero-copy chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["Parcel", "HpxMessage", "PARCEL_METADATA_BYTES",
           "TRANSMISSION_ENTRY_BYTES"]

#: Serialized per-parcel metadata overhead (action id, destination, counts).
PARCEL_METADATA_BYTES = 64
#: Bytes per zero-copy chunk entry in the transmission chunk.
TRANSMISSION_ENTRY_BYTES = 16

@dataclass(slots=True)
class Parcel:
    """One action invocation in flight.

    ``args`` is carried by reference (Python objects); ``arg_sizes`` gives
    the serialized size in bytes of each argument, which is what the cost
    model and chunking logic consume.
    """

    action: str
    dest: int
    src: int
    args: Tuple[Any, ...] = ()
    arg_sizes: Tuple[int, ...] = ()
    #: trace correlation id, drawn from the owning runtime's per-run
    #: counter only while that runtime traces; 0 for an untraced parcel
    #: or one built outside a runtime
    pid: int = 0

    def __post_init__(self) -> None:
        if not self.arg_sizes and self.args:
            # Default: tiny scalar arguments of 8 bytes each.
            self.arg_sizes = (8,) * len(self.args)
        elif len(self.arg_sizes) != len(self.args):
            raise ValueError(
                f"arg_sizes ({len(self.arg_sizes)}) does not match args "
                f"({len(self.args)})")
        elif self.arg_sizes and min(self.arg_sizes) < 0:
            raise ValueError("negative argument size")

    @property
    def payload_bytes(self) -> int:
        return sum(self.arg_sizes)

    @property
    def serialized_bytes(self) -> int:
        return PARCEL_METADATA_BYTES + self.payload_bytes


@dataclass(slots=True)
class HpxMessage:
    """A serialized batch of parcels: what the parcelport layer transfers."""

    dest: int
    src: int
    parcels: List[Parcel]
    non_zc_size: int          #: bytes in the non-zero-copy chunk
    zc_sizes: List[int]       #: one entry per zero-copy chunk
    trans_size: int           #: transmission-chunk bytes (0 if no zc chunks)
    #: end-to-end sequence number, assigned by the parcelport's
    #: reliability layer on first transmission (None when reliability is
    #: off); retransmissions reuse it so the receiver can dedup replays
    seq: Optional[int] = None
    #: True while this message holds one flow-control credit (set by the
    #: parcelport submit path, transferred to the in-flight entry and
    #: released exactly once — on ack or terminal failure)
    credited: bool = False
    #: message id: the correlation key that links every observability
    #: record of this message's lifecycle into one chain, drawn from the
    #: owning runtime's per-run counter (0 outside a runtime)
    mid: int = 0

    @property
    def has_zero_copy(self) -> bool:
        return bool(self.zc_sizes)

    @property
    def total_bytes(self) -> int:
        return self.non_zc_size + sum(self.zc_sizes) + self.trans_size

    @property
    def num_parcels(self) -> int:
        return len(self.parcels)

    def chunk_plan(self) -> List[Tuple[str, int]]:
        """The ordered (kind, size) list of follow-up chunks to transfer
        after the header — the 'chain of messages' of §3.1/§3.2.

        The header message itself (and whatever piggybacks on it) is the
        parcelport's business; this lists every chunk that *may* need its
        own message: the non-zero-copy chunk, the transmission chunk (iff
        any zero-copy chunk exists), then each zero-copy chunk.
        """
        plan: List[Tuple[str, int]] = [("non_zc", self.non_zc_size)]
        if self.has_zero_copy:
            plan.append(("trans", self.trans_size))
            plan.extend(("zc", s) for s in self.zc_sizes)
        return plan
