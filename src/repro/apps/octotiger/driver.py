"""Octo-Tiger driver: executes the FMM step graph on the simulated runtime.

Per step, per leaf: physics compute → ghost-boundary exchange with every
face neighbour → update compute → M2M contribution to the parent; interior
nodes aggregate eight child contributions and pass up; once the root
aggregates, local expansions cascade back down (L2L) and each leaf finishing
its down-pass counts toward the step barrier.  Steps are timed exactly as
the paper reports: steps per second over ``n_steps`` (stop step = 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...hpx_rt.future import Latch
from ...hpx_rt.runtime import HpxRuntime, raise_parcel_failure
from .fmm import FmmModel, OctoTigerConfig
from .octree import Octree, build_octree
from .sfc import partition_octree

__all__ = ["OctoTigerDriver", "OctoTigerResult"]


@dataclass
class OctoTigerResult:
    """Outcome of one Octo-Tiger run."""

    config: OctoTigerConfig
    n_localities: int
    step_times_us: List[float]
    census: Dict[str, int]

    @property
    def total_time_us(self) -> float:
        return sum(self.step_times_us)

    @property
    def steps_per_second(self) -> float:
        """The paper's Fig 10/11 metric (virtual seconds)."""
        total_s = self.total_time_us * 1e-6
        return len(self.step_times_us) / total_s if total_s > 0 else 0.0


class OctoTigerDriver:
    """Builds the tree, registers actions, runs the stepped simulation."""

    def __init__(self, runtime: HpxRuntime,
                 config: Optional[OctoTigerConfig] = None):
        self.rt = runtime
        self.config = config or OctoTigerConfig()
        #: argument sizes of every ghost-zone exchange, M2M, L2L and
        #: migration parcel: one tuple each, shared by all parcels of that
        #: kind instead of one copy per parcel
        self._boundary_sizes = (self.config.boundary_bytes,)
        self._m2m_sizes = (self.config.m2m_bytes,)
        self._l2l_sizes = (self.config.l2l_bytes,)
        self._migrate_sizes = (self.config.migrate_bytes,)
        self._phase = 0.0
        self.regrids = 0
        self.migrated_leaves = 0
        self._build_model(self._phase)
        runtime.register_action("ot_migrate", self._act_migrate)
        # Per-step mutable state (reset each step).
        self._boundary_count: Dict[int, int] = {}
        self._child_count: Dict[int, int] = {}
        self._step_latch: Optional[Latch] = None
        self.rt.register_action("ot_boundary", self._act_boundary)
        self.rt.register_action("ot_m2m", self._act_m2m)
        self.rt.register_action("ot_l2l", self._act_l2l)

    def _build_model(self, phase: float) -> None:
        """(Re)build the octree at an orbital phase and repartition it."""
        rng = self.rt.rng.stream(f"octotiger.tree.{self.regrids}")
        self.tree: Octree = build_octree(
            self.config.max_level, self.config.base_level,
            self.config.refine_threshold, rng=rng, phase=phase)
        partition_octree(self.tree, len(self.rt.localities))
        self.model = FmmModel(self.tree, len(self.rt.localities),
                              substeps=self.config.substeps,
                              fields=self.config.boundary_fields)
        #: ``(nid,)`` argument tuple of each node, shared by every parcel
        #: addressed to that node instead of one tuple per ``apply``
        self._nid_args = [(node.nid,) for node in self.tree.nodes]
        # Per-step mutable state (reset each step).
        self._boundary_count: Dict[int, int] = {}
        self._child_count: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> OctoTigerResult:
        """Execute ``n_steps`` steps; returns timing + structure census."""
        # Every parcel is needed: a failed or shed one ends the run.
        self.rt.on_parcel_failure = raise_parcel_failure
        done = self.rt.sim.process(self._main(), name="octotiger")
        self.rt.run_until(done, max_events=max_events)
        return done.value

    def _main(self):
        cfg = self.config
        step_times: List[float] = []
        for step in range(cfg.n_steps):
            t0 = self.rt.now
            if cfg.regrid_interval and step > 0 \
                    and step % cfg.regrid_interval == 0:
                yield from self._regrid(step)
            self._boundary_count = {leaf.nid: 0 for leaf in self.tree.leaves}
            self._child_count = {nid: 0
                                 for nid in self.model.expected_children}
            self._step_latch = Latch(self.rt.sim, len(self.tree.leaves))
            for lid, leaves in self.model.leaves_of.items():
                loc = self.rt.locality(lid)
                loc.spawn(self._kick, leaves)
            yield self._step_latch.wait()
            step_times.append(self.rt.now - t0)
        census = self.model.census()
        census["regrids"] = self.regrids
        census["migrated_leaves"] = self.migrated_leaves
        return OctoTigerResult(config=cfg,
                               n_localities=len(self.rt.localities),
                               step_times_us=step_times,
                               census=census)

    # ------------------------------------------------------------------
    # adaptive regridding (the AMR step real Octo-Tiger performs as the
    # stars orbit): rebuild the tree at the new phase, repartition, and
    # migrate the data of every leaf whose owner changed
    # ------------------------------------------------------------------
    def _regrid(self, step: int):
        cfg = self.config
        old_owner = {n.key: n.owner for n in self.tree.nodes}
        self._phase += cfg.orbit_step_rad * cfg.regrid_interval
        self.regrids += 1
        self._build_model(self._phase)
        # data migration: cells that exist in both trees but moved rank
        moves = []
        for leaf in self.tree.leaves:
            prev = old_owner.get(leaf.key)
            if prev is not None and prev != leaf.owner:
                moves.append((prev, leaf.owner))
        self.migrated_leaves += len(moves)
        if not moves:
            return
        latch = Latch(self.rt.sim, len(moves))
        self._migrate_latch = latch
        for src, dst in moves:
            self.rt.locality(src).spawn(self._migrate, dst)
        yield latch.wait()

    def _migrate(self, worker, dst: int):
        yield from worker.locality.apply(
            worker, dst, "ot_migrate", (0,), arg_sizes=self._migrate_sizes)

    def _act_migrate(self, worker, _token: int):
        self._migrate_latch.count_down()
        return None

    # ------------------------------------------------------------------
    # task bodies: bound methods spawned with one argument (a node or a
    # locality's leaf list), so a queued task holds no per-task closure
    # ------------------------------------------------------------------
    def _kick(self, worker, leaves):
        spawn_us = self.rt.cost.task_spawn_us
        for leaf in leaves:
            yield worker.cpu(spawn_us)
            worker.locality.spawn(self._leaf_work, leaf)

    def _leaf_work(self, worker, leaf):
        cfg = self.config
        nid_args = self._nid_args
        # Runge-Kutta substeps: compute then exchange ghost zones with
        # every face neighbour, `substeps` times per step.
        for _sub in range(cfg.substeps):
            yield from worker.compute_granular(
                cfg.leaf_compute_us / cfg.substeps)
            for nbr_nid in self.model.neighbors[leaf.nid]:
                nbr = self.tree.node(nbr_nid)
                for _f in range(cfg.boundary_fields):
                    yield from worker.locality.apply(
                        worker, nbr.owner, "ot_boundary", nid_args[nbr_nid],
                        arg_sizes=self._boundary_sizes)
        if not self.model.expected_boundary[leaf.nid]:
            # Degenerate (single-leaf) tree: no inputs to wait for.
            worker.locality.spawn(self._update, leaf)

    def _update(self, worker, leaf):
        yield from worker.compute_granular(self.config.update_compute_us)
        yield from self._contribute_up(worker, leaf)

    def _interior(self, worker, node):
        yield from worker.compute_granular(self.config.interior_compute_us)
        if node.parent is None:
            # Root aggregated: start the L2L down pass.
            yield from self._push_down(worker, node)
        else:
            yield from self._contribute_up(worker, node)

    def _down(self, worker, node):
        yield from worker.compute_granular(self.config.l2l_compute_us)
        if node.is_leaf:
            self._step_latch.count_down()
        else:
            yield from self._push_down(worker, node)

    # ------------------------------------------------------------------
    # dataflow plumbing
    # ------------------------------------------------------------------
    def _contribute_up(self, worker, node):
        parent = node.parent
        if parent.owner == worker.locality.lid:
            self._count_m2m(parent.nid)
        else:
            yield from worker.locality.apply(
                worker, parent.owner, "ot_m2m", self._nid_args[parent.nid],
                arg_sizes=self._m2m_sizes)

    def _push_down(self, worker, node):
        for child in node.children:
            if child.owner == worker.locality.lid:
                self.rt.locality(child.owner).spawn(self._down, child)
            else:
                yield from worker.locality.apply(
                    worker, child.owner, "ot_l2l", self._nid_args[child.nid],
                    arg_sizes=self._l2l_sizes)

    def _count_boundary(self, nid: int) -> None:
        self._boundary_count[nid] += 1
        if self._boundary_count[nid] == self.model.expected_boundary[nid]:
            leaf = self.tree.node(nid)
            self.rt.locality(leaf.owner).spawn(self._update, leaf)

    def _count_m2m(self, nid: int) -> None:
        self._child_count[nid] += 1
        if self._child_count[nid] == self.model.expected_children[nid]:
            node = self.tree.node(nid)
            self.rt.locality(node.owner).spawn(self._interior, node)

    # ------------------------------------------------------------------
    # actions (remote entry points)
    # ------------------------------------------------------------------
    def _act_boundary(self, worker, nid: int):
        self._count_boundary(nid)
        return None

    def _act_m2m(self, worker, nid: int):
        self._count_m2m(nid)
        return None

    def _act_l2l(self, worker, nid: int):
        worker.locality.spawn(self._down, self.tree.node(nid))
        return None
