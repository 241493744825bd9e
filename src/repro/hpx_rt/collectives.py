"""Collective operations over HPX actions.

HPX provides collectives as library constructs on top of actions and
LCOs; applications built on this simulated runtime (the Octo-Tiger
driver's step barrier, the distributed-FFT mini-app's transpose) need
the same.  Two communication shapes are implemented, both keeping all
traffic on the parcelport under study:

* **root-based** (barrier, broadcast, reduce, scatter, gather,
  all_gather) — every participant fans in to a root locality, which
  folds / slices the contributions and fans the per-participant result
  back out.  Faithful to how small-scale HPX collectives behave.
* **direct exchange** (all_to_all) — every participant sends its
  per-destination chunk straight to that destination, so all ``n·(n-1)``
  messages race on the fabric at once.  This is the transpose primitive
  of distributed FFTs and the canonical *incast* workload: every
  receiver sees a simultaneous fan-in from all peers, which exercises
  credit-based flow control and receiver backlogs very differently
  from a fan-in tree.

Usage (from any task, on every participating locality)::

    coll = Collectives(rt)           # once, before boot
    ...
    def task(worker):
        value = yield from coll.allreduce(worker, "phase1", my_value)
        rows  = yield from coll.all_to_all(worker, "transpose", chunks,
                                           size=chunk_bytes)

Each logical operation is identified by a user-chosen ``op_id``; an
``op_id`` may be reused immediately (including in a loop, with arrivals
landing out of order across localities) — per-locality generation
counters disambiguate the instances, and all root / exchange state is
keyed by ``(op_id, generation)`` so concurrent generations never
cross-talk.
"""

from __future__ import annotations

import operator
from functools import reduce as _functools_reduce
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .future import Future
from .runtime import HpxRuntime

__all__ = ["Collectives", "REDUCTIONS"]

#: named reduction operators accepted by :meth:`Collectives.reduce`
REDUCTIONS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "min": min,
    "max": max,
    "prod": operator.mul,
}

#: root-based operation modes (the ``mode`` field of arrive messages);
#: reductions travel as ``"reduce:<op>"``
_BARRIER = "barrier"
_BCAST = "bcast"
_SCATTER = "scatter"
_GATHER = "gather"
_ALL_GATHER = "all_gather"


class _Incoming:
    """One source's in-progress all_to_all contribution at a destination.

    ``total < 0`` marks an unfragmented single chunk (stored under part
    ``-1``); otherwise ``total`` fragments are reassembled in index
    order, whatever order the messages arrived in.
    """

    __slots__ = ("total", "items")

    def __init__(self, total: int):
        self.total = total
        self.items: Dict[int, Any] = {}

    def add(self, part: int, item: Any) -> None:
        self.items[part] = item

    @property
    def complete(self) -> bool:
        return len(self.items) == (1 if self.total < 0 else self.total)

    def value(self) -> Any:
        if self.total < 0:
            return self.items[-1]
        return [self.items[i] for i in range(self.total)]


class Collectives:
    """Collectives for a booted (or about-to-boot) runtime."""

    def __init__(self, runtime: HpxRuntime, root: int = 0,
                 prefix: str = "coll"):
        self.rt = runtime
        self.root = root
        self.prefix = prefix
        self.n = len(runtime.localities)
        #: (op_id, generation) -> root-side accumulation state
        self._gather: Dict[Tuple[str, int], List[Tuple[int, Any]]] = {}
        #: (op_id, generation, lid) -> completion future
        self._futures: Dict[Tuple[str, int, int], Future] = {}
        #: (op_id, lid) -> per-locality generation counters
        self._gen: Dict[Tuple[str, int], int] = {}
        #: (op_id, generation, dest) -> per-source exchange state
        self._xchg: Dict[Tuple[str, int, int], Dict[int, _Incoming]] = {}
        runtime.register_action(f"{prefix}_arrive", self._act_arrive)
        runtime.register_action(f"{prefix}_release", self._act_release)
        runtime.register_action(f"{prefix}_xchg", self._act_xchg)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _next_gen(self, op_id: str, lid: int) -> int:
        key = (op_id, lid)
        gen = self._gen.get(key, 0)
        self._gen[key] = gen + 1
        return gen

    def _future_for(self, op_id: str, gen: int, lid: int) -> Future:
        key = (op_id, gen, lid)
        fut = self._futures.get(key)
        if fut is None:
            fut = Future(self.rt.sim)
            self._futures[key] = fut
        return fut

    def _await(self, op_id: str, gen: int, lid: int, fut: Future):
        """Generator: wait for this participant's result, then drop the
        bookkeeping entry (the resolver may run before *or* after the
        waiter registers, so cleanup belongs to the waiter)."""
        result = yield fut.wait()
        self._futures.pop((op_id, gen, lid), None)
        return result

    # ------------------------------------------------------------------
    # root-based fan-in / fan-out
    # ------------------------------------------------------------------
    def _fold(self, op_id: str, mode: str,
              bucket: List[Tuple[int, Any]]) -> List[Any]:
        """Per-destination results (indexed by lid) for one completed op.

        Contributions are ordered by source locality before folding, so
        results never depend on network arrival order.
        """
        by_src = dict(bucket)
        ordered = [by_src[lid] for lid in range(self.n)]
        if mode == _BARRIER:
            return [None] * self.n
        if mode == _BCAST:
            return [ordered[self.root]] * self.n
        if mode == _SCATTER:
            values = ordered[self.root]
            return list(values)
        if mode == _GATHER:
            return [ordered if lid == self.root else None
                    for lid in range(self.n)]
        if mode == _ALL_GATHER:
            return [ordered] * self.n
        if mode.startswith("reduce:"):
            fn = REDUCTIONS[mode.split(":", 1)[1]]
            return [_functools_reduce(fn, ordered)] * self.n
        raise ValueError(f"{op_id!r}: unknown collective mode {mode!r}")

    def _act_arrive(self, worker, op_id: str, gen: int, src: int,
                    value: Any, mode: str, size: int):
        """Root-side action: collect one participant's contribution."""
        key = (op_id, gen)
        bucket = self._gather.setdefault(key, [])
        bucket.append((src, value))
        if len(bucket) < self.n:
            return None
        del self._gather[key]
        results = self._fold(op_id, mode, bucket)
        out_size = _result_size(mode, size, self.n)

        def fanout(w, results=results):
            for lid in range(self.n):
                if lid == self.root:
                    self._future_for(op_id, gen, lid).set_result(
                        results[lid])
                else:
                    yield from w.locality.apply(
                        w, lid, f"{self.prefix}_release",
                        (op_id, gen, results[lid]),
                        arg_sizes=[8, 8, out_size])

        worker.locality.spawn(fanout)
        return None

    def _act_release(self, worker, op_id: str, gen: int, result: Any):
        self._future_for(op_id, gen, worker.locality.lid).set_result(result)
        return None

    def _participate(self, worker, op_id: str, value: Any, mode: str,
                     size: int):
        lid = worker.locality.lid
        gen = self._next_gen(op_id, lid)
        fut = self._future_for(op_id, gen, lid)
        if lid == self.root:
            # run the arrive logic locally (no self-message)
            self._act_arrive(worker, op_id, gen, lid, value, mode, size)
        else:
            yield from worker.locality.apply(
                worker, self.root, f"{self.prefix}_arrive",
                (op_id, gen, lid, value, mode, size),
                arg_sizes=[8, 8, 8, size, 8, 8])
        result = yield from self._await(op_id, gen, lid, fut)
        return result

    # ------------------------------------------------------------------
    # public collectives (generators; call from a task on EVERY locality)
    # ------------------------------------------------------------------
    def barrier(self, worker, op_id: str):
        """Generator: block until all localities entered this barrier."""
        yield from self._participate(worker, op_id, None, _BARRIER, size=8)

    def broadcast(self, worker, op_id: str, value: Any = None,
                  size: int = 8):
        """Generator → the root's ``value`` on every locality.

        Non-root callers pass ``value=None``; only the root's survives.
        """
        result = yield from self._participate(worker, op_id, value, _BCAST,
                                              size=size)
        return result

    def reduce(self, worker, op_id: str, value: Any, op: str = "sum",
               size: int = 8):
        """Generator → the reduction of all contributions (delivered to
        every participant, i.e. allreduce semantics)."""
        if op not in REDUCTIONS:
            raise KeyError(f"unknown reduction {op!r}; have "
                           f"{sorted(REDUCTIONS)}")
        result = yield from self._participate(worker, op_id, value,
                                              f"reduce:{op}", size=size)
        return result

    # alias with the conventional name
    allreduce = reduce

    def scatter(self, worker, op_id: str,
                values: Optional[Sequence[Any]] = None, size: int = 8):
        """Generator → ``values[lid]`` from the root's length-``n`` list.

        Non-root callers pass ``values=None``; ``size`` is the wire size
        of one scattered element.
        """
        if worker.locality.lid == self.root and (
                values is None or len(values) != self.n):
            raise ValueError(f"scatter {op_id!r}: root must supply exactly "
                             f"{self.n} values")
        result = yield from self._participate(worker, op_id, values,
                                              _SCATTER, size=size)
        return result

    def gather(self, worker, op_id: str, value: Any, size: int = 8):
        """Generator → on the root, the list of all contributions in
        locality order; ``None`` everywhere else (all callers still
        synchronize on completion)."""
        result = yield from self._participate(worker, op_id, value,
                                              _GATHER, size=size)
        return result

    def all_gather(self, worker, op_id: str, value: Any, size: int = 8):
        """Generator → the list of all contributions (locality order) on
        every participant."""
        result = yield from self._participate(worker, op_id, value,
                                              _ALL_GATHER, size=size)
        return result

    # ------------------------------------------------------------------
    # all-to-all: the transpose primitive (direct exchange, incast)
    # ------------------------------------------------------------------
    def _xchg_deposit(self, op_id: str, gen: int, dest: int, src: int,
                      part: int, total: int, chunk: Any) -> None:
        """Record one arrived chunk (or fragment); resolve the
        destination's future once all ``n`` sources are complete."""
        state = self._xchg.setdefault((op_id, gen, dest), {})
        inc = state.get(src)
        if inc is None:
            inc = state[src] = _Incoming(total if part >= 0 else -1)
        inc.add(part, chunk)
        if len(state) == self.n and all(i.complete
                                        for i in state.values()):
            result = [state[s].value() for s in range(self.n)]
            del self._xchg[(op_id, gen, dest)]
            self._future_for(op_id, gen, dest).set_result(result)

    def _act_xchg(self, worker, op_id: str, gen: int, src: int, part: int,
                  total: int, chunk: Any):
        self._xchg_deposit(op_id, gen, worker.locality.lid, src, part,
                           total, chunk)
        return None

    def all_to_all(self, worker, op_id: str, values: Sequence[Any],
                   size: int = 8, fragment: bool = False):
        """Generator → the transpose of the participants' contributions.

        Every locality supplies ``values``, a length-``n`` list whose
        ``j``-th entry is destined for locality ``j``; the call returns,
        on locality ``j``, the list ``[values_i[j] for i in range(n)]``
        (locality order).  Chunks travel **directly** source→destination
        — no root in the middle — so the op puts ``n·(n-1)`` simultaneous
        messages on the fabric: the incast pattern of an FFT transpose.

        ``size`` is the wire size of one chunk (or of one fragment when
        ``fragment=True``).  With ``fragment=True`` each ``values[j]``
        must be a non-empty sequence; its items are sent as *separate*
        messages and reassembled in index order at the destination — how
        real FFT transposes ship row segments, and the knob that deepens
        per-peer in-flight backlogs enough to engage credit windows.

        Destinations are walked in rotated order (``lid+1, lid+2, …``)
        so the instantaneous fan-in spreads over all receivers instead
        of dog-piling locality 0 first.
        """
        lid = worker.locality.lid
        if len(values) != self.n:
            raise ValueError(f"all_to_all {op_id!r}: need exactly {self.n} "
                             f"chunks, got {len(values)}")
        if fragment and any(len(v) == 0 for v in values):
            raise ValueError(f"all_to_all {op_id!r}: fragmented chunks "
                             f"must be non-empty")
        gen = self._next_gen(op_id, lid)
        fut = self._future_for(op_id, gen, lid)
        # own chunk: no self-message (HPX short-circuits local parcels)
        if fragment:
            own = values[lid]
            for part, item in enumerate(own):
                self._xchg_deposit(op_id, gen, lid, lid, part, len(own),
                                   item)
        else:
            self._xchg_deposit(op_id, gen, lid, lid, -1, 1, values[lid])
        for offset in range(1, self.n):
            dest = (lid + offset) % self.n
            chunk = values[dest]
            if fragment:
                for part, item in enumerate(chunk):
                    yield from worker.locality.apply(
                        worker, dest, f"{self.prefix}_xchg",
                        (op_id, gen, lid, part, len(chunk), item),
                        arg_sizes=[8, 8, 8, 8, 8, size])
            else:
                yield from worker.locality.apply(
                    worker, dest, f"{self.prefix}_xchg",
                    (op_id, gen, lid, -1, 1, chunk),
                    arg_sizes=[8, 8, 8, 8, 8, size])
        result = yield from self._await(op_id, gen, lid, fut)
        return result


def _result_size(mode: str, size: int, n: int) -> int:
    """Wire size of one fan-out result for a root-based collective."""
    if mode in (_BARRIER, _GATHER):
        return 8
    if mode == _ALL_GATHER:
        return max(8, size * n)
    return max(8, size)
