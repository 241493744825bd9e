"""Parcel (de)serialization with the zero-copy threshold.

Implements the chunking rules of §2.2: arguments smaller than the zero-copy
serialization threshold are *copied* into the non-zero-copy chunk; arguments
at or above the threshold become zero-copy chunks (transferred in place,
never copied by the serializer) and are indexed by the transmission chunk.

The returned costs are what the serializing/deserializing *thread* must pay;
zero-copy chunks contribute nothing to them, which is the entire point of
the mechanism.
"""

from __future__ import annotations

from typing import List, Tuple

from .parcel import (HpxMessage, Parcel, PARCEL_METADATA_BYTES,
                     TRANSMISSION_ENTRY_BYTES)
from .platform import CostModel

__all__ = ["serialize_parcels", "serialize_cost", "deserialize_cost",
           "split_args"]


def split_args(parcel: Parcel, threshold: int) -> Tuple[int, List[int]]:
    """Partition one parcel's arguments by the zero-copy threshold.

    Returns ``(small_bytes, zc_sizes)``: the bytes that land in the
    non-zero-copy chunk (metadata + small args) and the per-argument sizes
    that become zero-copy chunks.
    """
    small = PARCEL_METADATA_BYTES
    zc: List[int] = []
    for size in parcel.arg_sizes:
        if size >= threshold:
            zc.append(size)
        else:
            small += size
    return small, zc


def serialize_parcels(parcels: List[Parcel], cost: CostModel,
                      mid: int = 0) -> HpxMessage:
    """Serialize a batch of same-destination parcels into one HPX message
    with message id ``mid``.

    The message keeps ``parcels`` itself, so the caller hands the list
    over and must not change it afterwards.
    """
    if not parcels:
        raise ValueError("cannot serialize an empty parcel batch")
    dest = parcels[0].dest
    src = parcels[0].src
    for p in parcels:
        if p.dest != dest:
            raise ValueError("parcels in one message must share destination")
    non_zc = 0
    zc_sizes: List[int] = []
    for p in parcels:
        small, zc = split_args(p, cost.zero_copy_threshold)
        non_zc += small
        zc_sizes.extend(zc)
    trans = TRANSMISSION_ENTRY_BYTES * len(zc_sizes) if zc_sizes else 0
    return HpxMessage(dest=dest, src=src, parcels=parcels,
                      non_zc_size=non_zc, zc_sizes=zc_sizes,
                      trans_size=trans, mid=mid)


def serialize_cost(msg: HpxMessage, cost: CostModel) -> float:
    """CPU µs to serialize ``msg`` (zero-copy chunks are free by design)."""
    return cost.serialize_cost(msg.non_zc_size + msg.trans_size)


def deserialize_cost(msg: HpxMessage, cost: CostModel) -> float:
    """CPU µs to deserialize ``msg`` at the destination."""
    return cost.deserialize_cost(msg.non_zc_size + msg.trans_size)
