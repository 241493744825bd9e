"""Fault-injection layer: plan DSL, injector primitives, retry/recovery.

Everything here runs under the ``faults`` marker (``pytest -m faults``)
so CI can smoke the fault paths separately from the tier-1 suite.
"""

import pytest

from repro import FaultPlan, LAPTOP, RetryPolicy, RunOptions, make_runtime
from repro.faults import (CORRUPT, DELIVER, DROP, FaultInjector, LinkFlap,
                          NicStall)
from repro.netsim.message import NetMsg
from repro.parcelport.reliability import ACK_TAG, ReliabilityLayer
from repro.sim.core import Simulator
from repro.sim.rng import RngPool

pytestmark = pytest.mark.faults

CONFIGS = ["lci_psr_cq_pin_i", "lci_sr_sy_mt", "mpi", "mpi_i", "mpi_orig"]


# ---------------------------------------------------------------------------
# FaultPlan: validation + DSL
# ---------------------------------------------------------------------------
def test_plan_defaults_are_zero():
    plan = FaultPlan()
    assert plan.is_zero
    assert plan.describe() == "none"


def test_plan_validation_rejects_bad_probs():
    with pytest.raises(ValueError):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(ValueError):
        FaultPlan(corrupt_prob=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(drop_prob=0.7, corrupt_prob=0.7)
    with pytest.raises(ValueError):
        LinkFlap(100.0, 100.0)
    with pytest.raises(ValueError):
        NicStall(0, 50.0, 10.0)


def test_dsl_parses_every_token_kind():
    plan = FaultPlan.parse(
        "drop=0.05, corrupt=0.01, flap=100:200, flap=500:900@0>1, "
        "stall=50:80@1, target=0>*, target=*>1")
    assert plan.drop_prob == 0.05
    assert plan.corrupt_prob == 0.01
    assert plan.flaps == (LinkFlap(100.0, 200.0),
                          LinkFlap(500.0, 900.0, src=0, dst=1))
    assert plan.stalls == (NicStall(1, 50.0, 80.0),)
    assert plan.targets == ((0, None), (None, 1))
    assert not plan.is_zero
    # describe() round-trips through parse()
    assert FaultPlan.parse(plan.describe()) == plan


@pytest.mark.parametrize("bad", [
    "drop", "flap=100", "flap=1:2@3", "stall=1:2", "target=01",
    "bogus=1", "drop=2.0",
])
def test_dsl_rejects_malformed_tokens(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


# ---------------------------------------------------------------------------
# FaultInjector primitives
# ---------------------------------------------------------------------------
def _msg(src=0, dst=1, kind="eager"):
    return NetMsg(src=src, dst=dst, size=64, kind=kind)


def _injector(plan, seed=1):
    sim = Simulator()
    return sim, FaultInjector(sim, plan, RngPool(seed).stream("faults"))


def test_flap_window_drops_only_inside_window():
    sim, inj = _injector(FaultPlan(flaps=(LinkFlap(10.0, 20.0),)))
    assert inj.on_transmit(_msg()) == DELIVER          # t=0, before window
    sim.schedule_call(15.0, lambda: None)
    sim.run()                                          # advance to t=15
    assert inj.on_transmit(_msg()) == DROP
    assert inj.stats.get("flap_drops") == 1
    sim.schedule_call(10.0, lambda: None)
    sim.run()                                          # t=25, after window
    assert inj.on_transmit(_msg()) == DELIVER


def test_flap_link_selector():
    sim, inj = _injector(FaultPlan(flaps=(LinkFlap(0.0, 10.0, src=0,
                                                   dst=1),)))
    assert inj.on_transmit(_msg(0, 1)) == DROP
    assert inj.on_transmit(_msg(1, 0)) == DELIVER
    assert inj.on_transmit(_msg(0, 2)) == DELIVER


def test_drop_and_corrupt_rates_roughly_match():
    _, inj = _injector(FaultPlan(drop_prob=0.3, corrupt_prob=0.2))
    verdicts = [inj.on_transmit(_msg()) for _ in range(4000)]
    drops = verdicts.count(DROP) / len(verdicts)
    corrupts = verdicts.count(CORRUPT) / len(verdicts)
    assert abs(drops - 0.3) < 0.05
    assert abs(corrupts - 0.2) < 0.05
    assert inj.stats.get("drops") == verdicts.count(DROP)
    assert inj.stats.get("corrupt.eager") == verdicts.count(CORRUPT)


def test_targets_restrict_random_faults():
    _, inj = _injector(FaultPlan(drop_prob=1.0, targets=((0, 1),)))
    assert inj.on_transmit(_msg(0, 1)) == DROP
    assert inj.on_transmit(_msg(1, 0)) == DELIVER
    assert inj.on_transmit(_msg(2, 1)) == DELIVER
    _, inj = _injector(FaultPlan(drop_prob=1.0, targets=((None, 1),)))
    assert inj.on_transmit(_msg(2, 1)) == DROP


def test_stalled_until_picks_latest_covering_window():
    sim, inj = _injector(FaultPlan(stalls=(NicStall(1, 0.0, 10.0),
                                           NicStall(1, 5.0, 30.0))))
    assert inj.stalled_until(1, 6.0) == 30.0   # both cover; latest wins
    assert inj.stalled_until(1, 2.0) == 10.0   # only the first covers
    assert inj.stalled_until(0, 6.0) == 6.0    # other node unaffected
    assert inj.stalled_until(1, 40.0) == 40.0  # after all windows


# ---------------------------------------------------------------------------
# RetryPolicy / backoff
# ---------------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_us=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


def test_backoff_exponential_with_bounded_jitter():
    sim = Simulator()
    pol = RetryPolicy(timeout_us=100.0, backoff=2.0, jitter=0.1)
    rel = ReliabilityLayer(sim, pol, RngPool(3).stream("retry"))
    for k in range(5):
        base = 100.0 * 2.0 ** k
        for _ in range(20):
            d = rel.next_deadline(k)
            assert base <= d <= base * 1.1


def test_ack_tag_below_dynamic_range():
    from repro.parcelport.tagging import FIRST_DYNAMIC_TAG
    assert ACK_TAG < FIRST_DYNAMIC_TAG


# ---------------------------------------------------------------------------
# end-to-end: lossy runs still deliver exactly once (or fail loudly)
# ---------------------------------------------------------------------------
def _run_lossy(config, plan, policy=None, n=40, seed=11, size=8,
               latch_count=None):
    rt = make_runtime(config, platform=LAPTOP, n_localities=2, seed=seed,
                      options=RunOptions(fault_plan=plan,
                                         retry_policy=policy))
    got, failed = [], []
    done = rt.new_latch(latch_count if latch_count is not None else n)

    def on_fail(parcel, exc):
        failed.append(parcel.args[0])
        done.count_down()

    rt.on_parcel_failure = on_fail

    def sink(worker, idx):
        got.append(idx)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i in range(n):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,),
                                            arg_sizes=[size])

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=8_000_000)
    return rt, got, failed


@pytest.mark.parametrize("config", CONFIGS)
def test_lossy_run_delivers_exactly_once(config):
    plan = FaultPlan(drop_prob=0.08, corrupt_prob=0.02)
    rt, got, failed = _run_lossy(config, plan)
    # conservation: every parcel either executed once or failed loudly
    assert sorted(got + failed) == list(range(40))
    assert len(set(got)) == len(got), "duplicate action execution"
    summary = rt.fault_summary()
    assert summary.get("drops", 0) + summary.get("corrupts", 0) > 0
    assert summary.get("tracked_sends", 0) > 0


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_bounded_retries_fail_without_hang(config):
    plan = FaultPlan(drop_prob=1.0, targets=((0, 1),))
    pol = RetryPolicy(timeout_us=100.0, max_retries=2)
    rt, got, failed = _run_lossy(config, plan, policy=pol, n=10)
    assert got == []
    assert sorted(failed) == list(range(10))
    summary = rt.fault_summary()
    assert summary["sends_failed"] == 10
    # each failure spent exactly max_retries retransmissions
    assert summary["retransmits"] == 20
    assert rt.locality(0).parcel_layer.stats.get("parcels_failed") == 10


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_lost_acks_deduped_not_redelivered(config):
    # Kill the 1 -> 0 direction entirely: deliveries succeed but every
    # ack is lost, so the sender retransmits until retries exhaust.
    plan = FaultPlan(drop_prob=1.0, targets=((1, 0),))
    pol = RetryPolicy(timeout_us=150.0, max_retries=2)
    # each parcel counts down twice: once delivered, once reported failed
    rt, got, failed = _run_lossy(config, plan, policy=pol, n=10,
                                 latch_count=20)
    # every message was executed exactly once despite retransmissions...
    assert sorted(got) == list(range(10))
    # ...while the sender, never seeing an ack, reported them failed too
    assert sorted(failed) == list(range(10))
    summary = rt.fault_summary()
    assert summary.get("dup_deliveries", 0) > 0
    assert summary.get("acks_received", 0) == 0


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_large_messages_survive_loss(config):
    plan = FaultPlan(drop_prob=0.05)
    rt, got, failed = _run_lossy(config, plan, n=12, size=30000)
    assert sorted(got + failed) == list(range(12))
    assert len(set(got)) == len(got)


def test_nic_stall_defers_but_delivers():
    plan = FaultPlan(stalls=(NicStall(1, 0.0, 400.0),))
    rt, got, failed = _run_lossy("lci_psr_cq_pin_i", plan, n=20)
    assert sorted(got) == list(range(20))
    assert failed == []
    assert rt.fault_summary().get("stall_deferrals", 0) > 0


def test_flap_window_recovers_after_window():
    plan = FaultPlan(flaps=(LinkFlap(0.0, 1500.0),))
    rt, got, failed = _run_lossy("mpi_i", plan, n=20)
    assert sorted(got + failed) == list(range(20))
    assert rt.fault_summary().get("flap_drops", 0) > 0


# ---------------------------------------------------------------------------
# the zero plan is a strict no-op
# ---------------------------------------------------------------------------
def test_zero_plan_builds_no_injector():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2,
                      options=RunOptions(fault_plan=FaultPlan()))
    assert rt.fault_injector is None
    assert rt.fabric.injector is None
    assert rt.reliable is False
    rt.boot()
    assert rt.locality(0).parcelport.reliability is None
    assert rt.fault_summary() == {}

    # a parcel stream under the zero plan runs exactly as under no plan
    # (a benchmark point's results: tests/test_run_options.py)
    def run(config, plan):
        rt, got, failed = _run_lossy(config, plan, n=20, seed=5)
        assert failed == []
        return rt.sim.now, tuple(got)

    for config in ("lci_psr_cq_pin_i", "mpi_i"):
        assert run(config, None) == run(config, FaultPlan())


def test_reliable_flag_without_faults_still_delivers():
    # The ack protocol alone (no losses) must not break anything.
    rt = make_runtime("mpi_i", platform=LAPTOP, n_localities=2,
                      options=RunOptions(reliable=True))
    got = []
    done = rt.new_latch(15)

    def sink(worker, idx):
        got.append(idx)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i in range(15):
            yield from rt.locality(0).apply(worker, 1, "sink", (i,))

    rt.boot()
    assert rt.locality(0).parcelport.reliability is not None
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    assert sorted(got) == list(range(15))
    pp = rt.locality(0).parcelport
    assert pp.stats.get("acks_received") > 0
    assert pp.stats.get("retransmits") == 0
    assert pp.stats.get("sends_failed") == 0
