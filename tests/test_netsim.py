"""Unit tests for the NIC + fabric network substrate."""

import pytest

from repro.netsim import Fabric, HDR_IB, FDR_IB, NetMsg, NetworkParams, TESTNET
from repro.sim import Simulator


def make_net(n=2, params=TESTNET):
    sim = Simulator()
    fabric = Fabric(sim, params)
    nics = [fabric.add_node(i) for i in range(n)]
    return sim, fabric, nics


def test_message_delivered_after_tx_and_wire():
    sim, fabric, (a, b) = make_net()
    msg = NetMsg(src=0, dst=1, size=1000, kind="x")
    a.post_send(msg)
    sim.run()
    got = b.poll_rx()
    assert got is msg
    expected = TESTNET.tx_overhead_us + 1000 / TESTNET.bytes_per_us \
        + TESTNET.wire_latency_us
    assert got.arrive_t == pytest.approx(expected)


def test_post_send_returns_doorbell_cost():
    sim, fabric, (a, b) = make_net()
    cost = a.post_send(NetMsg(src=0, dst=1, size=8, kind="x"))
    assert cost == TESTNET.post_cost_us


def test_tx_pipeline_serializes_messages():
    sim, fabric, (a, b) = make_net()
    for i in range(3):
        a.post_send(NetMsg(src=0, dst=1, size=10000, kind="x", tag=i))
    sim.run()
    arrivals = []
    while True:
        m = b.poll_rx()
        if m is None:
            break
        arrivals.append(m.arrive_t)
    assert len(arrivals) == 3
    per_msg = TESTNET.tx_time(10000)
    # consecutive arrivals separated by exactly one TX service time
    assert arrivals[1] - arrivals[0] == pytest.approx(per_msg)
    assert arrivals[2] - arrivals[1] == pytest.approx(per_msg)


def test_fifo_delivery_order_preserved():
    sim, fabric, (a, b) = make_net()
    for i in range(5):
        a.post_send(NetMsg(src=0, dst=1, size=64, kind="x", tag=i))
    sim.run()
    tags = [b.poll_rx().tag for _ in range(5)]
    assert tags == [0, 1, 2, 3, 4]


def test_loopback_skips_wire_latency():
    sim, fabric, (a, b) = make_net()
    a.post_send(NetMsg(src=0, dst=0, size=100, kind="x"))
    sim.run()
    got = a.poll_rx()
    assert got.arrive_t == pytest.approx(TESTNET.tx_time(100))


def test_arrival_event_wakes_waiter():
    sim, fabric, (a, b) = make_net()
    woke = []

    def waiter(sim):
        yield b.arrival_event()
        woke.append(sim.now)

    sim.process(waiter(sim))
    sim.schedule_call(5.0, lambda: a.post_send(
        NetMsg(src=0, dst=1, size=8, kind="x")))
    sim.run()
    assert len(woke) == 1
    assert woke[0] > 5.0


def test_arrival_event_immediate_when_pending():
    sim, fabric, (a, b) = make_net()
    a.post_send(NetMsg(src=0, dst=1, size=8, kind="x"))
    sim.run()
    ev = b.arrival_event()
    assert ev.triggered


def test_on_deliver_hook_called():
    sim, fabric, (a, b) = make_net()
    hits = []
    b.on_deliver = lambda: hits.append(sim.now)
    a.post_send(NetMsg(src=0, dst=1, size=8, kind="x"))
    sim.run()
    assert len(hits) == 1


def test_unknown_destination_raises():
    sim, fabric, (a, b) = make_net()
    with pytest.raises(KeyError):
        a.post_send(NetMsg(src=0, dst=99, size=8, kind="x"))


def test_duplicate_node_rejected():
    sim, fabric, _ = make_net()
    with pytest.raises(ValueError):
        fabric.add_node(0)


def test_nic_statistics():
    sim, fabric, (a, b) = make_net()
    a.post_send(NetMsg(src=0, dst=1, size=100, kind="x"))
    a.post_send(NetMsg(src=0, dst=1, size=200, kind="x"))
    sim.run()
    assert a.stats.counters["tx_msgs"] == 2
    assert a.stats.accum["tx_bytes"] == 300
    assert b.stats.counters["rx_msgs"] == 2
    assert fabric.stats.counters["msgs"] == 2


def test_network_params_presets_sane():
    for p in (HDR_IB, FDR_IB, TESTNET):
        assert p.wire_latency_us > 0
        assert p.bytes_per_us > 0
        assert p.tx_time(0) == p.tx_overhead_us
        assert p.tx_time(10000) > p.tx_overhead_us
    # HDR is faster than FDR in both latency and bandwidth
    assert HDR_IB.bytes_per_us > FDR_IB.bytes_per_us
    assert HDR_IB.wire_latency_us < FDR_IB.wire_latency_us


def test_with_override():
    p = TESTNET.with_(wire_latency_us=9.0)
    assert p.wire_latency_us == 9.0
    assert p.bytes_per_us == TESTNET.bytes_per_us


def test_nic_virtual_channels_separate_traffic():
    sim, fabric, (a, b) = make_net()
    a.post_send(NetMsg(src=0, dst=1, size=8, kind="x", vchan=0))
    a.post_send(NetMsg(src=0, dst=1, size=8, kind="y", vchan=2))
    sim.run()
    assert b.rx_pending() == 2
    assert b.rx_pending(0) == 1
    assert b.rx_pending(1) == 0
    assert b.rx_pending(2) == 1
    assert b.poll_rx(2).kind == "y"
    assert b.poll_rx(0).kind == "x"
    assert b.poll_rx(5) is None
