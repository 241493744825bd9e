"""Edge-path coverage: sy scanning, wildcard interplay, shutdown, params."""

import pytest

from repro import LAPTOP, make_runtime
from repro.lci_sim import DEFAULT_LCI_PARAMS, LciParams
from repro.mpi_sim import ANY_SOURCE, ANY_TAG, DEFAULT_MPI_PARAMS, MpiParams
from repro.netsim import Fabric, TESTNET
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# parameter dataclasses
# ---------------------------------------------------------------------------
def test_param_with_overrides_are_copies():
    m = DEFAULT_MPI_PARAMS.with_(eager_threshold=42)
    assert m.eager_threshold == 42
    assert DEFAULT_MPI_PARAMS.eager_threshold != 42
    l = DEFAULT_LCI_PARAMS.with_(num_devices=3)
    assert l.num_devices == 3
    assert DEFAULT_LCI_PARAMS.num_devices == 1


def test_params_are_frozen():
    with pytest.raises(Exception):
        DEFAULT_MPI_PARAMS.eager_threshold = 1
    with pytest.raises(Exception):
        DEFAULT_LCI_PARAMS.num_devices = 2


def test_cost_model_helpers():
    from repro.hpx_rt import CostModel
    c = CostModel()
    assert c.serialize_cost(0) == c.serialize_base_us
    assert c.serialize_cost(1000) > c.serialize_cost(0)
    assert c.memcpy_cost(10000) == pytest.approx(
        10000 * c.memcpy_per_byte_us)
    c2 = c.with_(zero_copy_threshold=4096)
    assert c2.zero_copy_threshold == 4096
    assert c.zero_copy_threshold == 8192


# ---------------------------------------------------------------------------
# MPI wildcard interplay
# ---------------------------------------------------------------------------
class FakeWorker:
    def __init__(self, sim):
        self.sim = sim

    def cpu(self, us):
        return self.sim.timeout(us)

    def lock(self, lk):
        yield lk.acquire()

    def lock_acquired(self, lk, t0):
        pass


def test_wildcard_recv_does_not_steal_tagged_traffic():
    """An ANY_SOURCE/tag-0 header recv must not match tag-5 chunks."""
    from repro.mpi_sim import MpiComm
    sim = Simulator()
    fabric = Fabric(sim, TESTNET)
    a = MpiComm(sim, fabric.add_node(0), 0)
    b = MpiComm(sim, fabric.add_node(1), 1)
    w = FakeWorker(sim)
    out = {}

    def receiver():
        hdr = yield from b.irecv(w, ANY_SOURCE, 512, tag=0)
        tagged = yield from b.irecv(w, 0, 64, tag=5)
        out["hdr"], out["tagged"] = hdr, tagged

    def sender():
        yield sim.timeout(5.0)
        yield from a.isend(w, 1, 64, tag=5, payload="chunk")
        yield from a.isend(w, 1, 100, tag=0, payload="header")

    def poller():
        yield sim.timeout(50.0)
        for _ in range(10):
            yield from b.progress_only(w)
            yield sim.timeout(1.0)

    sim.process(receiver())
    sim.process(sender())
    sim.process(poller())
    sim.run(max_events=100000)
    assert out["tagged"].value == "chunk"
    assert out["hdr"].value == "header"


def test_any_tag_recv_matches_first_arrival():
    from repro.mpi_sim import MpiComm
    sim = Simulator()
    fabric = Fabric(sim, TESTNET)
    a = MpiComm(sim, fabric.add_node(0), 0)
    b = MpiComm(sim, fabric.add_node(1), 1)
    w = FakeWorker(sim)
    out = {}

    def run():
        req = yield from b.irecv(w, ANY_SOURCE, 64, ANY_TAG)
        yield from a.isend(w, 1, 64, tag=77, payload="x")
        yield sim.timeout(50.0)
        yield from b.test(w, req)
        out["req"] = req

    sim.process(run())
    sim.run(max_events=100000)
    assert out["req"].done and out["req"].value == "x"


# ---------------------------------------------------------------------------
# sy-mode pending-list behaviour
# ---------------------------------------------------------------------------
def test_sy_pending_list_drains_out_of_order_completions():
    """Synchronizers completing out of order still all get dispatched."""
    rt = make_runtime("lci_psr_sy_pin_i", platform=LAPTOP, n_localities=2)
    done = rt.new_latch(10)

    def sink(worker, i, blob):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        # mix of sizes: rendezvous chunks complete at data pull (late),
        # eager ones at injection (early) -> out-of-order sync signals
        for i in range(10):
            size = 30000 if i % 2 else 2000
            yield from rt.locality(0).apply(worker, 1, "sink", (i, "x"),
                                            arg_sizes=[8, size])

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    pp0 = rt.localities[0].parcelport
    assert len(pp0.sync_pending) == 0
    # the scan actually cycled entries (some tests found nothing yet)
    assert pp0.stats.counters["sends_completed"] == 10


# ---------------------------------------------------------------------------
# runtime shutdown
# ---------------------------------------------------------------------------
def test_shutdown_stops_worker_loops():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
    rt.boot()
    rt.run_until(1000.0)
    rt.shutdown()
    assert not rt.running
    # after shutdown the event heap drains completely
    rt.sim.run(max_events=100_000)
    assert rt.sim.peek() == float("inf")


# ---------------------------------------------------------------------------
# reporting edge: single-point log plot guard
# ---------------------------------------------------------------------------
def test_ascii_plot_handles_degenerate_ranges():
    from repro.bench import Series
    from repro.bench.reporting import ascii_plot
    s = Series("flat")
    s.add(10.0, 5.0)
    s.add(10.0, 5.0)
    out = ascii_plot([s])
    assert "flat" in out
