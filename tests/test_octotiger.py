"""Tests for the mini Octo-Tiger: octree, SFC partition, FMM graph, driver."""

import pytest

from repro import LAPTOP, make_runtime
from repro.apps.octotiger import (FmmModel, OctoTigerConfig, OctoTigerDriver,
                                  build_octree, compute_neighbors, morton_key,
                                  partition_octree)


# ---------------------------------------------------------------------------
# octree
# ---------------------------------------------------------------------------
def test_uniform_tree_counts():
    t = build_octree(max_level=2, base_level=2)
    assert len(t.leaves) == 64
    assert len(t.interiors) == 1 + 8
    assert len(t) == 73
    assert t.max_level == 2


def test_adaptive_refinement_concentrates_near_stars():
    t = build_octree(max_level=4, base_level=3)
    assert len(t.leaves) > 512          # something refined
    deep = [l for l in t.leaves if l.level == 4]
    assert deep
    # refined leaves sit near the star band (x in [0.2, 0.8], y,z mid)
    for leaf in deep:
        cx, cy, cz = leaf.centre()
        assert 0.1 < cx < 0.9
        assert 0.2 < cy < 0.8


def test_tree_parent_child_consistency():
    t = build_octree(max_level=3, base_level=2)
    for n in t.nodes:
        for c in n.children:
            assert c.parent is n
            assert c.level == n.level + 1
            assert c.x >> 1 == n.x and c.y >> 1 == n.y and c.z >> 1 == n.z
        if n.children:
            assert len(n.children) == 8


def test_find_containing_leaf():
    t = build_octree(max_level=3, base_level=2)
    finest = t.max_level
    top = 1 << finest
    for (x, y, z) in [(0, 0, 0), (top - 1, top - 1, top - 1),
                      (top // 2, top // 3, top // 4)]:
        leaf = t.find_containing_leaf(finest, x, y, z)
        assert leaf is not None and leaf.is_leaf
        # the found leaf's cell contains the query cell
        shift = finest - leaf.level
        assert leaf.x == x >> shift
        assert leaf.y == y >> shift
        assert leaf.z == z >> shift
    assert t.find_containing_leaf(finest, -1, 0, 0) is None
    assert t.find_containing_leaf(finest, top, 0, 0) is None


def test_invalid_levels_rejected():
    with pytest.raises(ValueError):
        build_octree(max_level=1, base_level=2)


# ---------------------------------------------------------------------------
# SFC partitioning
# ---------------------------------------------------------------------------
def test_morton_key_orders_parents_with_first_child():
    assert morton_key(0, 0, 0, 1) == morton_key(0, 0, 0, 2)
    assert morton_key(1, 0, 0, 1) == morton_key(2, 0, 0, 2)


def test_morton_key_distinct_for_distinct_cells():
    keys = {morton_key(x, y, z, 3)
            for x in range(8) for y in range(8) for z in range(8)}
    assert len(keys) == 512


def test_partition_covers_all_nodes_and_balances():
    t = build_octree(max_level=3, base_level=3)
    owners = partition_octree(t, 4)
    assert set(owners) == {n.nid for n in t.nodes}
    counts = [0, 0, 0, 0]
    for leaf in t.leaves:
        counts[leaf.owner] += 1
    assert max(counts) - min(counts) <= 1     # equal-leaf cuts
    # SFC locality: interior owned by a locality that owns one of its leaves
    for node in t.interiors:
        descendants = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                descendants.add(n.owner)
            stack.extend(n.children)
        assert node.owner in descendants


def test_partition_single_locality():
    t = build_octree(max_level=2, base_level=2)
    partition_octree(t, 1)
    assert all(n.owner == 0 for n in t.nodes)


def test_partition_invalid():
    t = build_octree(max_level=2, base_level=2)
    with pytest.raises(ValueError):
        partition_octree(t, 0)


# ---------------------------------------------------------------------------
# FMM structure
# ---------------------------------------------------------------------------
def test_neighbors_symmetric_and_no_self():
    t = build_octree(max_level=4, base_level=3)
    nbrs = compute_neighbors(t)
    for nid, lst in nbrs.items():
        assert nid not in lst
        for m in lst:
            assert nid in nbrs[m]


def test_uniform_tree_neighbor_counts():
    t = build_octree(max_level=2, base_level=2)
    nbrs = compute_neighbors(t)
    # a 4x4x4 uniform grid: corner leaves have 3 face neighbours,
    # interior leaves have 6
    counts = sorted(len(v) for v in nbrs.values())
    assert counts[0] == 3
    assert counts[-1] == 6


def test_cross_level_neighbors_exist_in_adaptive_tree():
    t = build_octree(max_level=4, base_level=3)
    nbrs = compute_neighbors(t)
    cross = 0
    for nid, lst in nbrs.items():
        for m in lst:
            if t.node(nid).level != t.node(m).level:
                cross += 1
    assert cross > 0


def test_fmm_model_census():
    t = build_octree(max_level=3, base_level=3)
    partition_octree(t, 4)
    model = FmmModel(t, 4, substeps=2, fields=3)
    census = model.census()
    assert census["leaves"] == 512
    assert census["boundary_msgs_per_step"] % (2 * 3) == 0
    assert census["m2m_msgs_per_step"] == census["l2l_msgs_per_step"]
    # expected inputs account for substeps x fields
    some_leaf = t.leaves[0].nid
    assert model.expected_boundary[some_leaf] == \
        len(model.neighbors[some_leaf]) * 6


def test_for_paper_level_mapping():
    c6 = OctoTigerConfig.for_paper_level(6)
    assert c6.max_level == 4 and c6.base_level == 3
    c5 = OctoTigerConfig.for_paper_level(5)
    assert c5.max_level == 4
    # shallower paper level keeps the floored tree but carries the level
    # difference in per-leaf compute (heavier -> lower comm share)
    assert c5.leaf_compute_us != c6.leaf_compute_us


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("config", ["lci_psr_cq_pin_i", "mpi"])
def test_driver_completes_steps(config):
    rt = make_runtime(config, platform=LAPTOP, n_localities=4)
    cfg = OctoTigerConfig(max_level=2, base_level=2, n_steps=2,
                          substeps=1, boundary_fields=1,
                          leaf_compute_us=200.0, update_compute_us=100.0,
                          interior_compute_us=50.0, l2l_compute_us=20.0)
    drv = OctoTigerDriver(rt, cfg)
    res = drv.run(max_events=5_000_000)
    assert len(res.step_times_us) == 2
    assert all(t > 0 for t in res.step_times_us)
    assert res.steps_per_second > 0
    assert res.census["leaves"] == 64


def test_driver_step_determinism():
    def one():
        rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP,
                          n_localities=2, seed=123)
        cfg = OctoTigerConfig(max_level=2, base_level=2, n_steps=1,
                              substeps=1, boundary_fields=1,
                              leaf_compute_us=100.0, update_compute_us=50.0,
                              interior_compute_us=20.0, l2l_compute_us=10.0)
        return OctoTigerDriver(rt, cfg).run(max_events=5_000_000)

    r1, r2 = one(), one()
    assert r1.step_times_us == r2.step_times_us


def test_driver_single_locality_all_local():
    rt = make_runtime("lci", platform=LAPTOP, n_localities=1)
    cfg = OctoTigerConfig(max_level=2, base_level=2, n_steps=1,
                          substeps=1, boundary_fields=1,
                          leaf_compute_us=100.0, update_compute_us=50.0,
                          interior_compute_us=20.0, l2l_compute_us=10.0)
    res = OctoTigerDriver(rt, cfg).run(max_events=5_000_000)
    assert res.steps_per_second > 0
    assert rt.fabric.stats.counters.get("msgs", 0) == 0


# ---------------------------------------------------------------------------
# adaptive regridding
# ---------------------------------------------------------------------------
def test_star_positions_orbit():
    import math
    from repro.apps.octotiger import build_octree
    from repro.apps.octotiger.octree import star_positions
    a0, b0 = star_positions(0.0)
    a1, b1 = star_positions(math.pi)
    # half an orbit swaps the stars
    assert a1 == pytest.approx(b0)
    assert b1 == pytest.approx(a0)
    # refinement follows the stars
    t0 = build_octree(4, 3, phase=0.0)
    t1 = build_octree(4, 3, phase=math.pi / 2)
    k0 = {n.key for n in t0.leaves}
    k1 = {n.key for n in t1.leaves}
    assert k0 != k1


def test_driver_regrids_and_migrates():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=4)
    cfg = OctoTigerConfig(max_level=4, base_level=3, n_steps=4,
                          regrid_interval=2, substeps=1, boundary_fields=1,
                          leaf_compute_us=300.0, update_compute_us=150.0,
                          interior_compute_us=80.0, l2l_compute_us=40.0)
    res = OctoTigerDriver(rt, cfg).run(max_events=30_000_000)
    assert res.census["regrids"] == 1
    assert res.census["migrated_leaves"] > 0
    assert len(res.step_times_us) == 4


def test_driver_static_tree_when_regrid_disabled():
    rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP, n_localities=2)
    cfg = OctoTigerConfig(max_level=2, base_level=2, n_steps=3,
                          regrid_interval=0, substeps=1, boundary_fields=1,
                          leaf_compute_us=100.0, update_compute_us=50.0,
                          interior_compute_us=30.0, l2l_compute_us=10.0)
    res = OctoTigerDriver(rt, cfg).run(max_events=10_000_000)
    assert res.census["regrids"] == 0
    assert res.census["migrated_leaves"] == 0


def test_regrid_steps_slower_than_static_steps():
    def total(regrid):
        rt = make_runtime("lci_psr_cq_pin_i", platform=LAPTOP,
                          n_localities=4, seed=3)
        cfg = OctoTigerConfig(max_level=4, base_level=3, n_steps=4,
                              regrid_interval=regrid, substeps=1,
                              boundary_fields=1,
                              leaf_compute_us=300.0,
                              update_compute_us=150.0,
                              interior_compute_us=80.0,
                              l2l_compute_us=40.0)
        return OctoTigerDriver(rt, cfg).run(
            max_events=30_000_000).total_time_us

    assert total(regrid=1) > total(regrid=0)


def test_failed_parcel_ends_the_run():
    """A parcel that runs out of retries ends the run with its
    ParcelSendError instead of leaving it to spin to ``max_events``."""
    from repro import FaultPlan, ParcelSendError, RetryPolicy, RunOptions
    from repro.bench import OctoTigerBenchParams, run_octotiger

    params = OctoTigerBenchParams(paper_level=4, n_steps=1, n_localities=4,
                                  max_events=2_000_000)
    options = RunOptions(fault_plan=FaultPlan(drop_prob=0.6),
                         retry_policy=RetryPolicy(max_retries=1))
    with pytest.raises(ParcelSendError, match="failed after 1 retrans"):
        run_octotiger("mpi_i", params, seed=7, options=options)
