"""End-to-end backpressure: credits, bounded backlogs, overload reaction.

Everything here runs under the ``flow`` marker (``pytest -m flow``) so CI
can smoke the flow-control paths separately from the tier-1 suite.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (FaultPlan, FlowControlPolicy, LAPTOP, ParcelShedError,
                   RetryPolicy, RunOptions, make_runtime)
from repro.faults import CreditStarve, PoolSqueeze, SlowReceiver
from repro.flow import OVERFLOW_SHED, SEND_OK, SEND_WOULD_BLOCK
from repro.parcelport.base import Parcelport
from repro.parcelport.reliability import ReliabilityLayer
from repro.sim.core import Simulator
from repro.sim.rng import RngPool

pytestmark = pytest.mark.flow

#: one representative of each Table-1 configuration family
CONFIGS = ["lci_psr_cq_pin_i", "lci_sr_sy_mt", "mpi", "mpi_i", "mpi_orig"]

#: the default overload scenario: squeezed sender pool + slow receiver
OVERLOAD = "squeeze=0:3000@0*1,slow=0:4000@1*2"


# ---------------------------------------------------------------------------
# FlowControlPolicy: validation + backoff schedule
# ---------------------------------------------------------------------------
def test_policy_defaults_are_valid():
    fl = FlowControlPolicy()
    assert fl.credit_window > 0
    assert fl.overflow == "defer"


@pytest.mark.parametrize("kw", [
    {"credit_window": -1}, {"max_backlog": -1}, {"max_queued_parcels": -2},
    {"overflow": "panic"}, {"shed_sample": -1},
    {"pool_retry_base_us": 0.0}, {"pool_retry_backoff": 0.5},
    {"pool_retry_max_us": 0.5}, {"rendezvous_fallback_after": 0},
])
def test_policy_validation_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        FlowControlPolicy(**kw)


def test_pool_wait_backoff_is_exponential_and_capped():
    fl = FlowControlPolicy(pool_retry_base_us=1.0, pool_retry_backoff=2.0,
                           pool_retry_max_us=16.0)
    assert [fl.pool_wait_us(k) for k in range(6)] == \
        [1.0, 2.0, 4.0, 8.0, 16.0, 16.0]


# ---------------------------------------------------------------------------
# fault DSL: the three overload tokens
# ---------------------------------------------------------------------------
def test_dsl_parses_overload_tokens_and_round_trips():
    plan = FaultPlan.parse("slow=0:100@1*5, squeeze=0:50@0*2, starve=10:20@1")
    assert plan.slows == (SlowReceiver(1, 0.0, 100.0, 5.0),)
    assert plan.squeezes == (PoolSqueeze(0, 0.0, 50.0, 2),)
    assert plan.starves == (CreditStarve(1, 10.0, 20.0),)
    assert not plan.is_zero
    assert FaultPlan.parse(plan.describe()) == plan


@pytest.mark.parametrize("bad", [
    "slow=0:100", "slow=100:0@1*5", "slow=0:100@1*-2",
    "squeeze=1:2@0", "squeeze=0:50@0*-1", "squeeze=5:5@0*2",
    "starve=10@1", "starve=20:10@1",
])
def test_dsl_rejects_malformed_overload_tokens(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def test_overload_dataclass_validation():
    with pytest.raises(ValueError):
        SlowReceiver(0, 10.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        SlowReceiver(0, 0.0, 10.0, -1.0)
    with pytest.raises(ValueError):
        PoolSqueeze(0, 0.0, 10.0, -1)
    with pytest.raises(ValueError):
        CreditStarve(0, 10.0, 5.0)


# ---------------------------------------------------------------------------
# ReliabilityLayer credit accounting (unit level)
# ---------------------------------------------------------------------------
def _rel(policy=None, window=0):
    sim = Simulator()
    rel = ReliabilityLayer(sim, policy or RetryPolicy(),
                           RngPool(7).stream("rel"))
    if window:
        rel.set_credit_window(window)
    return sim, rel


def test_credit_consume_and_release_bookkeeping():
    _, rel = _rel(window=2)
    assert rel.credits_left(1) == 2
    assert rel.consume_credit(1) and rel.consume_credit(1)
    assert not rel.consume_credit(1)
    assert rel.stats.get("credit_stalls") == 1
    rel._release_credit(1)
    assert rel.credits_left(1) == 1
    assert rel.has_credit(1)
    # has_credit is a pure peek: no counters moved
    assert rel.stats.get("credit_stalls") == 1


def test_credit_release_beyond_window_raises():
    _, rel = _rel(window=1)
    with pytest.raises(RuntimeError):
        rel._release_credit(3)


def test_zero_window_disables_credits():
    _, rel = _rel(window=0)
    for _ in range(100):
        assert rel.consume_credit(1)
    assert rel.stats.get("credits_consumed") == 0


class _FakeMsg:
    def __init__(self, dest=1):
        self.seq = None
        self.dest = dest
        self.credited = False


class _FakeConn:
    _next = 0

    def __init__(self):
        _FakeConn._next += 1
        self.cid = _FakeConn._next
        self.msg = None
        self.last_active = 0.0


def test_take_expired_honors_policy_drain_limit():
    sim, rel = _rel(policy=RetryPolicy(timeout_us=10.0, jitter=0.0,
                                       drain_limit=2))
    for _ in range(5):
        rel.track(_FakeMsg(), _FakeConn())
    assert rel.in_flight == 5
    # >limit burst: drained in drain_limit-sized slices
    first = rel.take_expired(1e9)
    assert len(first) == 2
    for e in first:
        rel.drop(e)
    assert len(rel.take_expired(1e9)) == 2
    # an explicit limit overrides the policy default
    sim2, rel2 = _rel(policy=RetryPolicy(timeout_us=10.0, jitter=0.0,
                                         drain_limit=2))
    for _ in range(5):
        rel2.track(_FakeMsg(), _FakeConn())
    assert len(rel2.take_expired(1e9, limit=10)) == 5


def test_take_expired_recvs_honors_policy_drain_limit():
    sim, rel = _rel(policy=RetryPolicy(timeout_us=10.0, drain_limit=3))
    for _ in range(7):
        rel.watch_recv(_FakeConn())
    assert rel.watched_recvs == 7
    assert len(rel.take_expired_recvs(1e9)) == 3
    assert len(rel.take_expired_recvs(1e9, limit=100)) == 4


def test_drain_limit_validation():
    with pytest.raises(ValueError):
        RetryPolicy(drain_limit=0)


#: one operation on a pair of layers: (name, argument)
_REL_OPS = st.one_of(
    st.tuples(st.just("track"), st.integers(0, 2)),
    st.tuples(st.sampled_from(["ack", "expedite", "touch", "unwatch"]),
              st.integers(0, 63)),
    st.tuples(st.just("watch"), st.just(0)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 5.0, 20.0,
                                                   80.0])),
    # bits 0-7: reschedule (1) or drop (0) each expired send; bit 8:
    # scan at a poll start half a microsecond back
    st.tuples(st.just("poll"), st.integers(0, 511)),
)


def _rel_state(rel):
    return (list(rel._heap), list(rel._recv_heap),
            {seq: (e.deadline, e.attempts, e.conn is None)
             for seq, e in rel._table.items()},
            {cid: conn.last_active for cid, conn in rel._watched.items()})


@settings(max_examples=200, deadline=None)
@given(st.lists(_REL_OPS, max_size=80))
def test_deadline_due_agrees_with_the_scans_it_gates(ops):
    """Two layers take the same operations; one runs both expiry scans at
    every poll, the other only when ``deadline_due`` says a deadline is
    due.  They must return the same entries and keep the same state."""
    policy = RetryPolicy(timeout_us=10.0, backoff=2.0, jitter=0.5,
                         recv_expiry_factor=2.0, drain_limit=2)
    always, gated = layers = [_rel(policy=policy)[1] for _ in range(2)]
    seqs = []
    conns = ([], [])
    for op, arg in ops:
        if op == "advance":
            for rel in layers:
                rel.sim.now += arg
        elif op == "track":
            seq, = {rel.track(_FakeMsg(dest=arg), _FakeConn()).seq
                    for rel in layers}
            seqs.append(seq)
        elif op == "watch":
            for rel, mine in zip(layers, conns):
                conn = _FakeConn()
                conn.cid = len(mine)
                mine.append(conn)
                rel.watch_recv(conn)
        elif op in ("ack", "expedite"):
            if seqs:
                for rel in layers:
                    getattr(rel, "on_ack" if op == "ack" else "expedite")(
                        seqs[arg % len(seqs)])
        elif op in ("touch", "unwatch"):
            if conns[0]:
                for rel, mine in zip(layers, conns):
                    getattr(rel, f"{op}_recv")(mine[arg % len(mine)])
        else:
            now = always.sim.now - (0.5 if arg & 256 else 0.0)
            taken = []
            for rel in layers:
                if rel is gated and not rel.deadline_due(now):
                    taken.append(([], []))
                    continue
                sends = rel.take_expired(now)
                for i, entry in enumerate(sends):
                    if arg >> i & 1:
                        entry.attempts += 1
                        rel.reschedule(entry)
                    else:
                        rel.drop(entry)
                recvs = rel.take_expired_recvs(now)
                taken.append(([(e.seq, e.attempts) for e in sends],
                              [conn.cid for conn in recvs]))
            assert taken[0] == taken[1]
        assert _rel_state(always) == _rel_state(gated)


# ---------------------------------------------------------------------------
# end-to-end harness
# ---------------------------------------------------------------------------
def _run_flow(config, plan=None, flow=None, n=40, seed=11, size=8,
              reliable=None, concurrent=False, sampler=None):
    """Send ``n`` parcels 0->1 under a flow policy; returns (rt, got, shed)."""
    rt = make_runtime(config, platform=LAPTOP, n_localities=2, seed=seed,
                      options=RunOptions(fault_plan=plan, flow_policy=flow,
                                         reliable=reliable))
    got, shed = [], []
    done = rt.new_latch(n)

    def on_fail(parcel, exc):
        shed.append((parcel.args[0], exc))
        done.count_down()

    rt.on_parcel_failure = on_fail

    def sink(worker, idx):
        got.append(idx)
        done.count_down()
        return None

    rt.register_action("sink", sink)
    loc0 = rt.locality(0)
    rt.boot()
    if concurrent:
        for i in range(n):
            def one(worker, i=i):
                yield from loc0.apply(worker, 1, "sink", (i,),
                                      arg_sizes=[size])
            loc0.spawn(one)
    else:
        def sender(worker):
            for i in range(n):
                yield from loc0.apply(worker, 1, "sink", (i,),
                                      arg_sizes=[size])
        loc0.spawn(sender)
    if sampler is not None:
        def tick():
            sampler(rt)
            rt.sim.schedule_call(25.0, tick)
        rt.sim.schedule_call(25.0, tick)
    rt.run_until(done, max_events=8_000_000)
    # let retransmit acks / credit returns drain fully
    rt.run_until(rt.sim.now + 30000.0, max_events=8_000_000)
    rt.shutdown()
    return rt, got, shed


# ---------------------------------------------------------------------------
# credit invariants: every family, squeezed pool + slow receiver
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", CONFIGS)
def test_overload_delivers_exactly_once_with_credit_conservation(config):
    plan = FaultPlan.parse(OVERLOAD)
    flow = FlowControlPolicy(credit_window=4, max_backlog=8,
                             max_queued_parcels=16)
    rt, got, shed = _run_flow(config, plan=plan, flow=flow, n=40)
    assert sorted(got) == list(range(40)), "lost or duplicated parcels"
    assert shed == []
    for loc in rt.localities:
        rel = loc.parcelport.reliability
        assert rel is not None
        # conservation: all credits returned, nothing tracked forever
        assert rel.in_flight == 0
        for peer, left in rel._credits.items():
            assert left == rel.credit_window, (peer, left)
        assert rel.stats.get("credits_consumed") == \
            rel.stats.get("credits_replenished")
    summary = rt.fault_summary()
    assert summary.get("credits_consumed", 0) > 0
    assert summary.get("slow_deferrals", 0) > 0


@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_backlog_and_in_flight_stay_bounded(config):
    plan = FaultPlan.parse(OVERLOAD)
    flow = FlowControlPolicy(credit_window=3, max_backlog=5,
                             max_queued_parcels=16)
    seen = {"in_flight": 0, "backlog": 0}

    def sample(rt):
        for loc in rt.localities:
            rel = loc.parcelport.reliability
            if rel is not None:
                seen["in_flight"] = max(seen["in_flight"], rel.in_flight)
            for depth in loc.parcelport.backlog_depths().values():
                seen["backlog"] = max(seen["backlog"], depth)

    rt, got, shed = _run_flow(config, plan=plan, flow=flow, n=40,
                              concurrent=True, sampler=sample)
    assert sorted(got) == list(range(40))
    pp = rt.locality(0).parcelport
    assert pp.backlog_peak <= flow.max_backlog
    assert seen["backlog"] <= flow.max_backlog
    # every credited message holds a credit, so in-flight can never pass
    # the per-peer window (single destination here)
    assert seen["in_flight"] <= flow.credit_window
    assert rt.fault_summary().get("backlogged_sends", 0) > 0


# ---------------------------------------------------------------------------
# pool squeeze: backoff + eager->rendezvous fallback
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "lci_sr_sy_mt"])
def test_pool_squeeze_triggers_backoff_and_fallback(config):
    # cap=1: headers get their packet, but eager chunks find the pool dry
    # while the header drains through TX -> rendezvous fallback
    plan = FaultPlan.parse("squeeze=0:5000@0*1")
    flow = FlowControlPolicy(credit_window=8, rendezvous_fallback_after=1)
    rt, got, shed = _run_flow(config, plan=plan, flow=flow, n=20,
                              size=8192, concurrent=True)
    assert sorted(got) == list(range(20))
    assert shed == []
    summary = rt.fault_summary()
    assert summary.get("pool_squeezed", 0) > 0
    assert summary.get("pool_exhaustions", 0) > 0
    assert summary.get("eager_fallbacks", 0) > 0


def test_full_squeeze_recovers_after_window():
    # cap=0: *nothing* can take a packet during the window; the
    # exponential backoff must carry every send across it
    plan = FaultPlan.parse("squeeze=0:2000@0*0")
    flow = FlowControlPolicy(credit_window=8)
    rt, got, shed = _run_flow("lci_psr_cq_pin_i", plan=plan, flow=flow, n=30)
    assert sorted(got) == list(range(30))
    summary = rt.fault_summary()
    assert summary.get("pool_retries", 0) > 0
    assert summary.get("pool_backoffs", 0) > 0


# ---------------------------------------------------------------------------
# credit starvation: held acks must not duplicate deliveries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_exactly_once_under_credit_starvation(config):
    # acks destined to the sender (node 0) are held: its credit window
    # drains to zero and stays there until the window lifts
    plan = FaultPlan.parse("starve=0:1200@0")
    flow = FlowControlPolicy(credit_window=2, max_backlog=8,
                             max_queued_parcels=16)
    rt, got, shed = _run_flow(config, plan=plan, flow=flow, n=30)
    assert sorted(got) == list(range(30))
    assert len(set(got)) == len(got), "duplicate execution"
    summary = rt.fault_summary()
    assert summary.get("ack_holds", 0) > 0
    assert summary.get("credit_stalls", 0) > 0


# ---------------------------------------------------------------------------
# shed overflow policy
# ---------------------------------------------------------------------------
def test_shed_policy_drops_loudly_and_bounds_the_sample():
    plan = FaultPlan.parse("slow=0:4000@1*5")
    flow = FlowControlPolicy(credit_window=1, max_backlog=1,
                             overflow=OVERFLOW_SHED, shed_sample=4)
    rt, got, shed = _run_flow("lci_psr_cq_pin_i", plan=plan, flow=flow,
                              n=40, concurrent=True)
    # conservation: every parcel either executed once or was shed loudly
    delivered = sorted(got)
    shed_ids = sorted(i for i, _ in shed)
    assert sorted(delivered + shed_ids) == list(range(40))
    assert len(shed_ids) > 0
    assert all(isinstance(exc, ParcelShedError) for _, exc in shed)
    pl = rt.locality(0).parcel_layer
    assert pl.stats.get("parcels_shed") == len(shed_ids)
    assert len(pl.shed_parcels) <= flow.shed_sample


# ---------------------------------------------------------------------------
# determinism + byte-identity contracts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi_i"])
def test_overloaded_runs_are_deterministic(config):
    def once():
        rt, got, shed = _run_flow(config,
                                  plan=FaultPlan.parse(OVERLOAD),
                                  flow=FlowControlPolicy(
                                      credit_window=3, max_backlog=6,
                                      max_queued_parcels=12),
                                  n=30, seed=99)
        return (rt.sim.now, tuple(got),
                tuple(sorted(rt.fault_summary().items())))

    assert once() == once()


#: (fault spec, parcel bytes, retry policy, backlog bound) under a
#: one-credit window.  drop + corrupt + flap with one retry gives
#: retransmits, failed sends whose drops release credits, and reaped
#: receive chains; the roomy backlog never registers an accept-waiter,
#: so the pump runs only when its credit gate opens.  squeeze + slow +
#: starve with a one-message backlog gives credit stalls, backlog drains
#: and accept-waiters (``drains_deferred``).
GATE_SCENARIOS = {
    "faults": ("drop=0.1,corrupt=0.02,flap=500:900", 20000,
               RetryPolicy(max_retries=1, timeout_us=200.0), 64),
    "overload": ("squeeze=0:2000@0*0,slow=0:3000@1*2,starve=0:1000@0", 8,
                 None, 1),
}

#: counters each scenario must reach, so that the gates have work to skip
GATE_REACHES = {
    "faults": ("retransmits", "sends_failed", "recv_chains_expired",
               "credit_stalls", "backlog_drains"),
    "overload": ("credit_stalls", "backlog_drains", "drains_deferred"),
}


def _run_gate_scenario(config, scenario):
    spec, size, retry, backlog = GATE_SCENARIOS[scenario]
    rt = make_runtime(config, platform=LAPTOP, n_localities=2, seed=11,
                      options=RunOptions(
                          fault_plan=FaultPlan.parse(spec),
                          flow_policy=FlowControlPolicy(
                              credit_window=1, max_backlog=backlog,
                              max_queued_parcels=16),
                          retry_policy=retry))
    got, failed = [], []
    rt.on_parcel_failure = lambda parcel, exc: failed.append(parcel.args[0])
    rt.register_action("sink", lambda worker, idx: got.append(idx))
    loc0 = rt.locality(0)
    rt.boot()
    for i in range(40):
        def one(worker, i=i):
            yield from loc0.apply(worker, 1, "sink", (i,), arg_sizes=[size])
        loc0.spawn(one)
    rt.run_until(20000.0, max_events=2_000_000)
    return (got, failed, rt.sim.now, rt.sim.event_count,
            rt.fault_summary(), rt.flow_summary())


@pytest.mark.parametrize("scenario", sorted(GATE_SCENARIOS))
@pytest.mark.parametrize("config", ["lci_sr_sy_mt", "mpi_orig"])
def test_poll_gates_leave_every_schedule_unchanged(config, scenario,
                                                   monkeypatch):
    """Background work skips the expiry scans while no deadline is due
    and the backlog pump while no credit has returned.  Forcing both
    gates open (the scans and pump run whenever there is anything to
    scan) must not move one event."""
    gated = _run_gate_scenario(config, scenario)
    summary = gated[4]
    assert all(summary.get(k) for k in GATE_REACHES[scenario]), summary
    monkeypatch.setattr(ReliabilityLayer, "deadline_due",
                        lambda self, now: True)
    # an epoch that never equals the layer's: the pump runs whenever a
    # backlog or an accept-waiter exists
    monkeypatch.setattr(Parcelport, "_futile_epoch",
                        property(lambda self: None,
                                 lambda self, epoch: None), raising=False)
    assert _run_gate_scenario(config, scenario) == gated


# ---------------------------------------------------------------------------
# parcelport submit statuses + gauges
# ---------------------------------------------------------------------------
def test_submit_without_policy_is_plain_send():
    rt = make_runtime("mpi_i", platform=LAPTOP, n_localities=2)
    rt.boot()
    pp = rt.locality(0).parcelport
    assert pp.flow is None
    assert pp.can_accept(1)
    assert pp.backlog_depths() == {}


def test_flow_summary_reports_gauges():
    plan = FaultPlan.parse(OVERLOAD)
    flow = FlowControlPolicy(credit_window=4, max_backlog=8,
                             max_queued_parcels=16)
    rt, got, _ = _run_flow("lci_psr_cq_pin_i", plan=plan, flow=flow, n=20)
    fsum = rt.flow_summary()
    assert set(fsum) == {"L0", "L1"}
    assert fsum["L0"]["in_flight"] == 0
    assert fsum["L0"]["credits"][1] == flow.credit_window
    assert fsum["L0"]["backlog_peak"] >= 0
    # without a policy the summary is empty
    rt2 = make_runtime("mpi_i", platform=LAPTOP, n_localities=2)
    rt2.boot()
    assert rt2.flow_summary() == {}


def test_statuses_are_distinct():
    assert SEND_OK != SEND_WOULD_BLOCK


# ---------------------------------------------------------------------------
# the overload_smoke figure
# ---------------------------------------------------------------------------
def test_overload_smoke_reports_nonzero_overload_counters():
    from repro.bench.figures import OVERLOAD_CONFIGS, overload_smoke

    res = overload_smoke(quick=True)
    assert [s.label for s in res.series] == OVERLOAD_CONFIGS
    for s in res.series:
        assert s.xs == [0.0, 1.0]
        assert all(y > 0 for y in s.ys), s.label
    counters = res.meta["counters"]
    assert len(counters) == len(OVERLOAD_CONFIGS)
    for key, c in counters.items():
        assert c.get("failed_msgs", 0) == 0, key
        assert c.get("fault.credits_consumed", 0) > 0, key
        assert c.get("fault.slow_deferrals", 0) > 0, key
    # the squeezed LCI family must have felt the pool squeeze
    lci = counters["lci_psr_cq_pin_i@" + res.meta["spec"]]
    assert lci.get("fault.pool_squeezed", 0) > 0
