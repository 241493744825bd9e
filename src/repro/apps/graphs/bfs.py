"""Level-synchronous distributed BFS over the simulated HPX runtime.

Vertices are hash-partitioned across localities; each BFS level expands
the local frontier, relaxes local edges directly and ships remote edges
as ``bfs_visit`` actions (tiny parcels — the parcel queue's aggregation
and the parcelports' small-message rates are what this stresses).  Levels
are separated by an allreduce over the global frontier size, using the
collectives layer.

Metrics follow graph-benchmark convention: traversed edges per second
(TEPS, in *virtual* time), levels, vertices reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...hpx_rt.collectives import Collectives
from ...hpx_rt.runtime import HpxRuntime

__all__ = ["make_graph", "DistributedBfs", "BfsResult"]


def make_graph(n_vertices: int, avg_degree: float,
               rng: np.random.Generator) -> List[List[int]]:
    """A synthetic scale-free-ish undirected graph (adjacency lists).

    Preferential attachment by degree-biased sampling: vertex v connects
    to ``avg_degree/2`` earlier vertices chosen proportionally to
    (approximate) current degree — giving the skewed degree distribution
    that makes graph traffic irregular.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    half = max(1, int(round(avg_degree / 2)))
    adj: List[Set[int]] = [set() for _ in range(n_vertices)]
    # seed: a small clique so early draws have targets
    for v in range(1, min(4, n_vertices)):
        adj[v].add(v - 1)
        adj[v - 1].add(v)
    targets: List[int] = list(range(min(4, n_vertices)))
    for v in range(len(targets), n_vertices):
        for _ in range(half):
            u = int(targets[rng.integers(0, len(targets))])
            if u != v:
                adj[v].add(u)
                adj[u].add(v)
                targets.append(u)
        targets.append(v)
    return [sorted(s) for s in adj]


@dataclass
class BfsResult:
    """Outcome of one distributed BFS."""

    root: int
    levels: int
    visited: int
    edges_traversed: int
    time_us: float
    parents: Dict[int, int] = field(default_factory=dict)

    @property
    def teps(self) -> float:
        """Traversed edges per (virtual) second."""
        return self.edges_traversed / (self.time_us * 1e-6) \
            if self.time_us > 0 else 0.0


class DistributedBfs:
    """Runs BFS over a partitioned graph on a (not yet booted) runtime."""

    def __init__(self, runtime: HpxRuntime, adjacency: List[List[int]]):
        self.rt = runtime
        self.adj = adjacency
        self.n = len(adjacency)
        self.n_loc = len(runtime.localities)
        self.coll = Collectives(runtime, prefix="bfs_coll")
        # hash partition (graph-benchmark style)
        self.owner = [v % self.n_loc for v in range(self.n)]
        # per-locality state
        self.parent: Dict[int, int] = {}
        self.frontier: List[Set[int]] = [set() for _ in range(self.n_loc)]
        self.next_frontier: List[Set[int]] = [set()
                                              for _ in range(self.n_loc)]
        self.edges = 0
        #: per-level message accounting for termination detection —
        #: level-synchronous BFS implementations count sent vs received
        #: relaxations because a barrier alone only proves everyone has
        #: *finished sending*, not that the messages have landed
        self._sent = 0
        self._received = 0
        runtime.register_action("bfs_visit", self._act_visit)

    # ------------------------------------------------------------------
    def _discover(self, v: int, parent: int) -> None:
        """Mark v discovered (owner-local call)."""
        if v not in self.parent:
            self.parent[v] = parent
            self.next_frontier[self.owner[v]].add(v)

    def _act_visit(self, worker, v: int, parent: int):
        self._received += 1
        self._discover(v, parent)
        return None

    def _make_level_task(self, lid: int, done_latch):
        """One locality's work for the current level."""
        def level(worker):
            mine = sorted(self.frontier[lid])
            for v in mine:
                for u in self.adj[v]:
                    self.edges += 1
                    dst = self.owner[u]
                    if dst == lid:
                        self._discover(u, v)
                    else:
                        self._sent += 1
                        yield from worker.locality.apply(
                            worker, dst, "bfs_visit", (u, v),
                            arg_sizes=[8, 8])
            done_latch.count_down()
        return level

    # ------------------------------------------------------------------
    def run(self, root: int = 0,
            max_events: Optional[int] = None) -> BfsResult:
        """Execute the BFS; boots the runtime if needed."""
        if not 0 <= root < self.n:
            raise ValueError(f"root {root} out of range")
        driver = self.rt.sim.process(self._main(root), name="bfs")
        self.rt.run_until(driver, max_events=max_events)
        return driver.value

    def _main(self, root: int):
        rt = self.rt
        t0 = rt.now
        self.parent[root] = root
        self.frontier[self.owner[root]].add(root)
        levels = 0
        while True:
            # run one level on every locality
            latch = rt.new_latch(self.n_loc)
            for lid in range(self.n_loc):
                rt.locality(lid).spawn(self._make_level_task(lid, latch))
            yield latch.wait()
            # settle: barrier (everyone finished sending), then drain
            # until every sent visit has been received
            yield from self._settle(levels)
            while self._received < self._sent:
                yield rt.sim.timeout(5.0)
            levels += 1
            # promote next frontier; stop when globally empty
            total_next = 0
            for lid in range(self.n_loc):
                self.frontier[lid] = self.next_frontier[lid]
                self.next_frontier[lid] = set()
                total_next += len(self.frontier[lid])
            if total_next == 0:
                break
        return BfsResult(root=root, levels=levels,
                         visited=len(self.parent),
                         edges_traversed=self.edges,
                         time_us=rt.now - t0,
                         parents=dict(self.parent))

    def _settle(self, level: int):
        """Barrier across localities via the collectives layer."""
        rt = self.rt
        latch = rt.new_latch(self.n_loc)

        def make(lid):
            def task(worker):
                yield from self.coll.barrier(worker, f"bfs_lvl{level}")
                latch.count_down()
            return task

        for lid in range(self.n_loc):
            rt.locality(lid).spawn(make(lid))
        yield latch.wait()

    # ------------------------------------------------------------------
    # verification helper
    # ------------------------------------------------------------------
    def reference_bfs(self, root: int) -> Tuple[Dict[int, int], int]:
        """Sequential BFS for validating the distributed run."""
        from collections import deque
        depth = {root: 0}
        q = deque([root])
        while q:
            v = q.popleft()
            for u in self.adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    q.append(u)
        return depth, max(depth.values()) + 1 if depth else 0
