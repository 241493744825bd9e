"""Unit tests for parcels, chunking and the zero-copy threshold."""

import pytest

from repro.hpx_rt import (CostModel, HpxMessage, Parcel, deserialize_cost,
                          serialize_cost, serialize_parcels, split_args)
from repro.hpx_rt.parcel import (PARCEL_METADATA_BYTES,
                                 TRANSMISSION_ENTRY_BYTES)

COST = CostModel()
THRESH = COST.zero_copy_threshold


def test_parcel_default_arg_sizes():
    p = Parcel("act", dest=1, src=0, args=(1, 2, 3))
    assert p.arg_sizes == (8, 8, 8)
    assert p.payload_bytes == 24
    assert p.serialized_bytes == PARCEL_METADATA_BYTES + 24


def test_parcel_explicit_size_mismatch_raises():
    with pytest.raises(ValueError, match="does not match"):
        Parcel("act", dest=1, src=0, args=(1, 2), arg_sizes=(8,))


def test_parcel_negative_size_raises():
    with pytest.raises(ValueError):
        Parcel("act", dest=1, src=0, args=(1,), arg_sizes=(-1,))


def test_split_args_respects_threshold():
    p = Parcel("act", dest=1, src=0, args=("s", "b", "s2"),
               arg_sizes=(100, THRESH, THRESH - 1))
    small, zc = split_args(p, THRESH)
    assert small == PARCEL_METADATA_BYTES + 100 + (THRESH - 1)
    assert zc == [THRESH]


def test_serialize_single_small_parcel():
    p = Parcel("act", dest=1, src=0, args=("x",), arg_sizes=(8,))
    msg = serialize_parcels([p], COST)
    assert msg.non_zc_size == PARCEL_METADATA_BYTES + 8
    assert msg.zc_sizes == []
    assert msg.trans_size == 0
    assert not msg.has_zero_copy
    # without zero-copy chunks the plan is just the non-zc chunk
    assert msg.chunk_plan() == [("non_zc", msg.non_zc_size)]


def test_message_keeps_the_callers_batch_list():
    """The message holds the batch list it was given, not a copy."""
    batch = [Parcel("act", dest=1, src=0, args=("x",), arg_sizes=(8,))
             for _ in range(3)]
    msg = serialize_parcels(batch, COST)
    assert msg.parcels is batch
    assert msg.total_bytes == msg.non_zc_size


def test_serialize_with_zero_copy_chunks():
    p = Parcel("act", dest=1, src=0, args=("a", "b"),
               arg_sizes=(16384, 70000))
    msg = serialize_parcels([p], COST)
    assert msg.zc_sizes == [16384, 70000]
    assert msg.trans_size == 2 * TRANSMISSION_ENTRY_BYTES
    plan = msg.chunk_plan()
    assert plan[0][0] == "non_zc"
    assert plan[1] == ("trans", msg.trans_size)
    assert plan[2:] == [("zc", 16384), ("zc", 70000)]


def test_serialize_aggregated_batch():
    parcels = [Parcel("act", dest=2, src=0, args=("x",), arg_sizes=(50,))
               for _ in range(10)]
    msg = serialize_parcels(parcels, COST)
    assert msg.num_parcels == 10
    assert msg.non_zc_size == 10 * (PARCEL_METADATA_BYTES + 50)
    assert msg.total_bytes == msg.non_zc_size


def test_serialize_mixed_destinations_rejected():
    p1 = Parcel("act", dest=1, src=0, args=())
    p2 = Parcel("act", dest=2, src=0, args=())
    with pytest.raises(ValueError, match="share destination"):
        serialize_parcels([p1, p2], COST)


def test_serialize_empty_batch_rejected():
    with pytest.raises(ValueError):
        serialize_parcels([], COST)


def test_zero_copy_chunks_do_not_cost_serialization():
    small = Parcel("act", dest=1, src=0, args=("x",), arg_sizes=(100,))
    big = Parcel("act", dest=1, src=0, args=("x", "z"),
                 arg_sizes=(100, 10 ** 6))
    m_small = serialize_parcels([small], COST)
    m_big = serialize_parcels([big], COST)
    # The megabyte zero-copy argument adds only the transmission-chunk
    # entry to serialization cost — the payload itself is never copied.
    delta = serialize_cost(m_big, COST) - serialize_cost(m_small, COST)
    assert delta == pytest.approx(
        TRANSMISSION_ENTRY_BYTES * COST.serialize_per_byte_us)
    assert deserialize_cost(m_big, COST) < COST.deserialize_cost(10 ** 6)


def test_threshold_boundary_exact():
    at = Parcel("a", dest=1, src=0, args=("x",), arg_sizes=(THRESH,))
    below = Parcel("a", dest=1, src=0, args=("x",), arg_sizes=(THRESH - 1,))
    assert serialize_parcels([at], COST).has_zero_copy
    assert not serialize_parcels([below], COST).has_zero_copy


def test_total_bytes_accounting():
    p = Parcel("act", dest=1, src=0, args=("a", "b"),
               arg_sizes=(10, 20000))
    msg = serialize_parcels([p], COST)
    assert msg.total_bytes == (PARCEL_METADATA_BYTES + 10) + 20000 \
        + TRANSMISSION_ENTRY_BYTES
