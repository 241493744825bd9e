"""White-box tests of parcelport internals: headers on the wire,
pending-list behaviour, completion plumbing, determinism."""

import pytest

from repro import LAPTOP, make_runtime
from repro.parcelport.header import HEADER_BASE_BYTES
from repro.parcelport.mpi_pp import HEADER_TAG, RELEASE_TAG


def run_n(config, sizes, n_loc=2, seed=0xC0FFEE):
    rt = make_runtime(config, platform=LAPTOP, n_localities=n_loc,
                      seed=seed)
    done = rt.new_latch(len(sizes))

    def sink(worker, i, blob):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i, size in enumerate(sizes):
            yield from rt.locality(0).apply(worker, 1, "sink", (i, "x"),
                                            arg_sizes=[8, size])

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    return rt


# ---------------------------------------------------------------------------
# wire-level accounting
# ---------------------------------------------------------------------------
def test_small_message_single_wire_message_lci_psr():
    rt = run_n("lci_psr_cq_pin_i", [8])
    # 8 B payload piggybacks fully: exactly one put on the wire
    assert rt.fabric.stats.counters["msgs"] == 1


def test_zero_copy_message_wire_sequence_lci():
    rt = run_n("lci_psr_cq_pin_i", [16384])
    # put (header) + rts + cts + data = 4 wire messages
    assert rt.fabric.stats.counters["msgs"] == 4
    dev = rt.localities[1].parcelport.device
    assert dev.stats.counters["puts_delivered"] == 1
    assert dev.stats.counters["long_recvs"] == 1


def test_zero_copy_message_wire_sequence_mpi():
    rt = run_n("mpi_i", [16384])
    mpi1 = rt.localities[1].parcelport.mpi
    # header eager, then rendezvous for the 16 KiB chunk: 4 KiB fragments
    assert mpi1.stats.counters["eager_recvs"] == 1
    assert mpi1.stats.counters["rndv_frags"] == 4
    assert mpi1.stats.counters["rndv_recvs"] == 1


def test_mpi_headers_use_tag_zero():
    rt = run_n("mpi_i", [8, 8, 8])
    # every header irecv was ANY_SOURCE/tag-0 and matched
    assert HEADER_TAG == 0
    assert rt.localities[1].parcelport.stats.counters[
        "headers_received"] == 3


def test_original_variant_wire_bytes_include_static_header():
    rt_new = run_n("mpi_i", [8])
    rt_orig = run_n("mpi_orig", [8])
    new_bytes = rt_new.fabric.stats.accum["bytes"]
    orig_bytes = rt_orig.fabric.stats.accum["bytes"]
    # the original sends a fixed 512 B header (plus a tag-release later)
    assert orig_bytes > new_bytes
    assert RELEASE_TAG == 1


# ---------------------------------------------------------------------------
# pending/completion bookkeeping drains
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["mpi", "mpi_i", "mpi_orig"])
def test_mpi_pending_list_drains(config):
    rt = run_n(config, [8, 20000, 64, 30000])
    for loc in rt.localities:
        assert len(loc.parcelport.pending) == 0
        assert loc.parcelport.mpi.posted_count <= 2  # header (+release)


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "lci_psr_sy_pin_i",
                                    "lci_sr_cq_mt_i"])
def test_lci_state_drains(config):
    rt = run_n(config, [8, 20000, 64, 30000])
    for loc in rt.localities:
        pp = loc.parcelport
        assert len(pp.comp_cq) == 0
        for cq in pp.header_cqs:
            assert len(cq) == 0
        assert len(pp.sync_pending) == 0
        for dev in pp.devices:
            assert dev.unexpected_count == 0
            # sr keeps exactly one persistent header recv posted
            expected = 1 if pp.protocol == "sr" else 0
            assert dev.posted_count == expected
            assert dev.pool.in_use == 0  # all packets returned


def test_lci_packet_pool_exhaustion_retries():
    from repro.lci_sim import DEFAULT_LCI_PARAMS
    from repro.parcelport import PPConfig, make_parcelport_factory
    from repro.hpx_rt import HpxRuntime

    cfg = PPConfig.parse("lci_psr_cq_pin_i")
    # tiny pool + slow NIC: packets are pinned in the TX pipeline long
    # enough that senders hit the non-blocking retry path
    params = DEFAULT_LCI_PARAMS.with_(packet_count=2)
    slow_net = LAPTOP.network.with_(bytes_per_us=5.0, tx_overhead_us=10.0)
    platform = LAPTOP.with_(network=slow_net)
    rt = HpxRuntime(platform, 2, make_parcelport_factory(cfg,
                                                         lci_params=params),
                    immediate=True)
    done = rt.new_latch(40)

    def sink(worker, i):
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def burst(worker):
        for i in range(40):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    rt.locality(0).spawn(burst)
    rt.run_until(done, max_events=3_000_000)
    pp = rt.localities[0].parcelport
    # the tiny pool forced retries, yet everything was delivered
    assert pp.stats.counters.get("pool_retries", 0) > 0


# ---------------------------------------------------------------------------
# determinism of the full stack
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi"])
def test_full_stack_determinism(config):
    t1 = run_n(config, [8, 20000, 64], seed=7).now
    t2 = run_n(config, [8, 20000, 64], seed=7).now
    assert t1 == t2


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_connection_ids_are_per_run(config):
    """Each parcelport numbers its own connections: two fresh runtimes in
    one process give their first connections the same ``cid``, and two
    identical runs leave their counters at the same place."""
    def first_cids():
        rt = make_runtime(config, platform=LAPTOP, n_localities=2)
        rt.boot()
        return [loc.parcelport.make_connection(1 - loc.lid).cid
                for loc in rt.localities]

    def next_cids():
        rt = run_n(config, [8, 20000, 64], seed=7)
        return [loc.parcelport.make_connection(1 - loc.lid).cid
                for loc in rt.localities]

    assert first_cids() == first_cids()
    assert next_cids() == next_cids()


def test_seed_changes_are_isolated_to_workload_noise():
    # communication path itself is deterministic; different seeds only
    # matter where workloads draw jitter (none in this echo) -> equal
    t1 = run_n("lci_psr_cq_pin_i", [8, 64], seed=1).now
    t2 = run_n("lci_psr_cq_pin_i", [8, 64], seed=2).now
    assert t1 == t2
