"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.apps.octotiger import build_octree, compute_neighbors, morton_key
from repro.hpx_rt import CostModel, Parcel, serialize_parcels, split_args
from repro.hpx_rt.parcel import (PARCEL_METADATA_BYTES,
                                 TRANSMISSION_ENTRY_BYTES)
from repro.parcelport import plan_header, tag_of
from repro.parcelport.header import HEADER_BASE_BYTES
from repro.parcelport.tagging import FIRST_DYNAMIC_TAG
from repro.sim import SerialResource, Simulator, SpinLock
from repro.sim.stats import summarize

COST = CostModel()

sizes = st.lists(st.integers(min_value=0, max_value=200_000),
                 min_size=1, max_size=20)


# ---------------------------------------------------------------------------
# serialization / chunking
# ---------------------------------------------------------------------------
@given(sizes)
def test_chunking_conserves_bytes(arg_sizes):
    """Every argument byte lands in exactly one chunk."""
    p = Parcel("a", dest=1, src=0, args=tuple(range(len(arg_sizes))),
               arg_sizes=tuple(arg_sizes))
    msg = serialize_parcels([p], COST)
    payload = sum(arg_sizes)
    overhead = PARCEL_METADATA_BYTES \
        + TRANSMISSION_ENTRY_BYTES * len(msg.zc_sizes)
    assert msg.total_bytes == payload + overhead
    # zero-copy chunks are exactly the args >= threshold
    assert sorted(msg.zc_sizes) == sorted(
        s for s in arg_sizes if s >= COST.zero_copy_threshold)


@given(sizes, st.integers(min_value=1, max_value=10))
def test_aggregation_is_additive(arg_sizes, n_parcels):
    parcels = [Parcel("a", dest=1, src=0, args=tuple(range(len(arg_sizes))),
                      arg_sizes=tuple(arg_sizes)) for _ in range(n_parcels)]
    one = serialize_parcels(parcels[:1], COST)
    many = serialize_parcels(parcels, COST)
    assert many.non_zc_size == n_parcels * one.non_zc_size
    assert len(many.zc_sizes) == n_parcels * len(one.zc_sizes)


@given(sizes, st.integers(min_value=HEADER_BASE_BYTES, max_value=65536))
def test_header_plan_conserves_chunks(arg_sizes, max_header):
    """Piggybacked chunks + follow-ups == all chunks, bytes conserved."""
    p = Parcel("a", dest=1, src=0, args=tuple(range(len(arg_sizes))),
               arg_sizes=tuple(arg_sizes))
    msg = serialize_parcels([p], COST)
    plan = plan_header(msg, max_header)
    assert plan.header_size <= max(max_header, HEADER_BASE_BYTES)
    followup_bytes = sum(s for _, s in plan.followups)
    assert plan.piggybacked_bytes + followup_bytes == msg.total_bytes
    # zero-copy chunks never piggyback
    zc_follow = [s for k, s in plan.followups if k == "zc"]
    assert sorted(zc_follow) == sorted(msg.zc_sizes)


# ---------------------------------------------------------------------------
# tagging
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=100, max_value=32767))
def test_tag_of_range_invariant(raw, offset, max_tag):
    t = tag_of(raw, offset, max_tag)
    assert FIRST_DYNAMIC_TAG <= t <= max_tag


@given(st.integers(min_value=0, max_value=2 ** 30))
def test_tag_blocks_are_consecutive_mod_span(raw):
    span = 32767 - FIRST_DYNAMIC_TAG + 1
    tags = [tag_of(raw, i, 32767) for i in range(5)]
    for a, b in zip(tags, tags[1:]):
        assert (b - a) % span == 1


# ---------------------------------------------------------------------------
# morton / octree
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=7), st.integers(0, 7),
       st.integers(0, 7), st.integers(min_value=0, max_value=7),
       st.integers(0, 7), st.integers(0, 7))
def test_morton_injective_at_level3(x1, y1, z1, x2, y2, z2):
    k1 = morton_key(x1, y1, z1, 3)
    k2 = morton_key(x2, y2, z2, 3)
    assert (k1 == k2) == ((x1, y1, z1) == (x2, y2, z2))


@given(st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=10, deadline=None)
def test_octree_structure_invariants(base, extra):
    tree = build_octree(max_level=base + extra, base_level=base)
    # node ids dense and unique
    assert [n.nid for n in tree.nodes] == list(range(len(tree)))
    # leaves + interiors partition the nodes
    assert len(tree.leaves) + len(tree.interiors) == len(tree)
    # total volume of leaves == unit cube
    vol = sum(8.0 ** -n.level for n in tree.leaves)
    assert abs(vol - 1.0) < 1e-9


@given(st.integers(min_value=2, max_value=3))
@settings(max_examples=5, deadline=None)
def test_neighbor_relation_symmetric(level):
    tree = build_octree(max_level=level, base_level=level)
    nbrs = compute_neighbors(tree)
    for nid, lst in nbrs.items():
        assert len(lst) == len(set(lst))
        for m in lst:
            assert nid in nbrs[m]


# ---------------------------------------------------------------------------
# simulator primitives
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_serial_resource_conserves_busy_time(service_times):
    sim = Simulator()
    res = SerialResource(sim)
    for s in service_times:
        res.request(s)
    sim.run()
    assert res.total_busy_us == sum(service_times)
    assert res.busy_until == sum(service_times)
    assert res.served == len(service_times)


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=20, deadline=None)
def test_spinlock_never_double_held(n_procs, hold):
    sim = Simulator()
    lock = SpinLock(sim, acquire_cost=0.0)
    inside = [0]
    max_inside = [0]

    def proc(sim):
        yield lock.acquire()
        inside[0] += 1
        max_inside[0] = max(max_inside[0], inside[0])
        yield sim.timeout(hold)
        inside[0] -= 1
        lock.release()

    for _ in range(n_procs):
        sim.process(proc(sim))
    sim.run()
    assert max_inside[0] == 1
    assert lock.acquisitions == n_procs


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=50))
def test_summarize_consistency(values):
    s = summarize(values)
    assert s["n"] == len(values)
    # allow one ulp of floating-point summation slack
    slack = 1e-12 * max(abs(s["min"]), abs(s["max"]), 1e-300)
    assert s["min"] - slack <= s["mean"] <= s["max"] + slack
    assert s["std"] >= 0.0


# ---------------------------------------------------------------------------
# end-to-end message conservation
# ---------------------------------------------------------------------------
@given(st.sampled_from(["lci_psr_cq_pin_i", "lci_sr_sy_mt", "mpi",
                        "mpi_orig"]),
       st.lists(st.integers(min_value=1, max_value=30000),
                min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_every_parcel_delivered_exactly_once(config, payload_sizes):
    """Message conservation: N sends -> exactly N action executions."""
    from repro import LAPTOP, make_runtime
    rt = make_runtime(config, platform=LAPTOP, n_localities=2)
    got = []
    done = rt.new_latch(len(payload_sizes))

    def sink(worker, idx, blob):
        got.append(idx)
        done.count_down()
        return None

    rt.register_action("sink", sink)

    def sender(worker):
        for i, size in enumerate(payload_sizes):
            yield from rt.locality(0).apply(worker, 1, "sink", (i, "b"),
                                            arg_sizes=[8, size])

    rt.boot()
    rt.locality(0).spawn(sender)
    rt.run_until(done, max_events=3_000_000)
    assert sorted(got) == list(range(len(payload_sizes)))


# ---------------------------------------------------------------------------
# fault injection: same seed + plan => bit-identical schedule
# ---------------------------------------------------------------------------
@given(st.sampled_from(["lci_psr_cq_pin_i", "lci_sr_sy_mt", "mpi_i"]),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=8, deadline=None)
def test_faulty_runs_are_deterministic(config, seed):
    """Replaying a lossy run with the same seed reproduces it exactly:
    same final time, same delivery order, same fault counters."""
    from repro import (FaultPlan, LAPTOP, RetryPolicy, RunOptions,
                       make_runtime)

    plan = FaultPlan(drop_prob=0.1, corrupt_prob=0.02)
    pol = RetryPolicy(timeout_us=300.0, max_retries=3)

    def run_once():
        rt = make_runtime(config, platform=LAPTOP, n_localities=2,
                          seed=seed, options=RunOptions(fault_plan=plan,
                                                        retry_policy=pol))
        got, failed = [], []
        done = rt.new_latch(12)
        rt.on_parcel_failure = lambda p, exc: (failed.append(p.args[0]),
                                               done.count_down())

        def sink(worker, idx):
            got.append(idx)
            done.count_down()
            return None

        rt.register_action("sink", sink)

        def sender(worker):
            for i in range(12):
                yield from rt.locality(0).apply(worker, 1, "sink", (i,),
                                                arg_sizes=[64])

        rt.boot()
        rt.locality(0).spawn(sender)
        rt.run_until(done, max_events=5_000_000)
        return rt.sim.now, tuple(got), tuple(failed), rt.fault_summary()

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# collectives properties
# ---------------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=5),
       st.lists(st.integers(min_value=-100, max_value=100),
                min_size=1, max_size=5))
@settings(max_examples=10, deadline=None)
def test_allreduce_sum_matches_python_sum(n_loc, extra):
    from repro import LAPTOP, make_runtime
    from repro.hpx_rt import Collectives

    n_loc = min(n_loc, LAPTOP.max_nodes)
    values = (extra * n_loc)[:n_loc]
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP,
                      n_localities=n_loc)
    coll = Collectives(rt)
    done = rt.new_latch(n_loc)
    results = {}

    def make(lid):
        def task(worker):
            got = yield from coll.allreduce(worker, "s", values[lid],
                                            op="sum")
            results[lid] = got
            done.count_down()
        return task

    rt.boot()
    for lid in range(n_loc):
        rt.locality(lid).spawn(make(lid))
    rt.run_until(done, max_events=3_000_000)
    assert all(v == sum(values) for v in results.values())
