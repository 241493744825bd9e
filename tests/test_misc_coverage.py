"""Additional coverage: library corners and integrations."""

import pytest

from repro import LAPTOP, make_runtime
from repro.apps.octotiger import OctoTigerConfig, OctoTigerDriver
from repro.parcelport.base import Connection, DetachedWorker
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# parcelport plumbing corners
# ---------------------------------------------------------------------------
def test_connection_reset_clears_state():
    c = Connection(dest=3)
    c.plan = [("zc", 100)]
    c.stage = 1
    c.tag = 7
    c.piggy_bytes = 40
    c.reset()
    assert c.plan == [] and c.stage == 0 and c.tag == 0
    assert c.finished_chunks  # empty plan counts as finished
    assert c.dest == 3        # identity survives reset


def test_detached_worker_cannot_be_scheduled():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()
    dw = DetachedWorker(rt.localities[0], name="probe")
    with pytest.raises(RuntimeError):
        dw.start()


def test_worker_lock_records_wait_time():
    rt = make_runtime("lci", platform=LAPTOP)
    rt.boot()
    loc = rt.localities[0]
    done = rt.new_latch(2)
    from repro.sim import SpinLock
    lk = SpinLock(rt.sim, acquire_cost=0.0)

    def holder(worker):
        yield from worker.lock(lk)
        yield worker.cpu(25.0)
        lk.release()
        done.count_down()

    loc.spawn(holder)
    loc.spawn(holder)
    rt.run_until(done)
    waits = [w.stats.accum.get("lock_wait_us", 0.0) for w in loc.workers]
    assert max(waits) >= 25.0


# ---------------------------------------------------------------------------
# MPI library corners
# ---------------------------------------------------------------------------
def test_mpi_pending_rts_accounting():
    from repro.mpi_sim import DEFAULT_MPI_PARAMS, MpiComm
    from repro.netsim import Fabric, TESTNET

    sim = Simulator()
    fabric = Fabric(sim, TESTNET)
    a = MpiComm(sim, fabric.add_node(0), 0,
                DEFAULT_MPI_PARAMS.with_(eager_threshold=10))
    b = MpiComm(sim, fabric.add_node(1), 1,
                DEFAULT_MPI_PARAMS.with_(eager_threshold=10))

    class W:
        def __init__(self):
            self.sim = sim

        def cpu(self, us):
            return sim.timeout(us)

        def lock(self, lk):
            yield lk.acquire()

        def lock_acquired(self, lk, t0):
            pass

    w = W()

    def run():
        yield from a.isend(w, 1, 5000, tag=9, payload="x")
        yield sim.timeout(20.0)
        yield from b.progress_only(w)          # stash the RTS
        assert b.pending_rts == 1
        req = yield from b.irecv(w, 0, 5000, tag=9)   # matches buffered RTS
        assert b.pending_rts == 0
        while not req.done:
            yield sim.timeout(1.0)
            yield from b.test(w, req)
            yield from a.progress_only(w)

    sim.process(run())
    sim.run(max_events=100000)


# ---------------------------------------------------------------------------
# cross-backend Octo-Tiger integration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["mpi_orig", "lci_sr_sy_mt_i"])
def test_octotiger_runs_on_every_backend(config):
    rt = make_runtime(config, platform=LAPTOP, n_localities=2)
    cfg = OctoTigerConfig(max_level=2, base_level=2, n_steps=1,
                          substeps=1, boundary_fields=1,
                          leaf_compute_us=150.0, update_compute_us=80.0,
                          interior_compute_us=40.0, l2l_compute_us=20.0)
    res = OctoTigerDriver(rt, cfg).run(max_events=5_000_000)
    assert res.steps_per_second > 0
