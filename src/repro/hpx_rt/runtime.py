"""The simulated HPX runtime: localities, actions, message delivery.

A :class:`HpxRuntime` owns the simulator, the network fabric, and a set of
:class:`Locality` objects (one per node — matching the paper's one-process-
per-node runs).  Applications:

1. register actions (``runtime.register_action``),
2. boot (``runtime.boot()``),
3. spawn tasks on localities; tasks invoke remote actions with
   ``yield from locality.apply(worker, dest, "action", args, arg_sizes)``,
4. drive the simulation with ``runtime.run_until(future)``.

The parcelport for each locality is produced by a user-supplied factory so
this module stays independent of :mod:`repro.parcelport`.  What a run
switches on beyond its workload (faults, reliability, flow control,
tracing, adaptation) is one :class:`RunOptions` value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..flow import FlowControlPolicy
from ..netsim.fabric import Fabric
from ..obs.spans import SpanRecorder
from ..sim.core import Event, Simulator
from ..sim.rng import RngPool
from ..sim.stats import StatSet
from .future import Future, Latch
from .parcel import HpxMessage, Parcel
from .parcel_layer import ParcelLayer
from .platform import CostModel, PlatformSpec
from .scheduler import Scheduler, Worker
from .serialization import deserialize_cost
from .task import NO_ARG, Task

__all__ = ["HpxRuntime", "Locality", "RunOptions", "raise_parcel_failure"]


@dataclass(frozen=True)
class RunOptions:
    """Everything a run can switch on beyond its workload parameters.

    The default switches nothing on, and each unset option keeps its
    layer out of the data path: the run is byte-identical to one of a
    build without fault injection, reliability, flow control, tracing
    or adaptation.
    """

    #: faults to inject; None or a zero plan builds no injector
    fault_plan: Optional[FaultPlan] = None
    #: the reliability layer's retransmission policy (None: defaults)
    retry_policy: Optional[RetryPolicy] = None
    #: end-to-end flow control (credits + bounded backlogs)
    flow_policy: Optional[FlowControlPolicy] = None
    #: span-recorder spec: a preset, categories, or True (falsy: off)
    trace: "str | bool | None" = None
    #: a :class:`repro.adapt.AdaptiveSpec` for the adaptive controller
    adapt: Any = None
    #: build the reliability layer; None means "iff faults are injected"
    reliable: Optional[bool] = None

    def with_flow(self, flow_policy: Optional[FlowControlPolicy],
                  owner: str) -> "RunOptions":
        """These options under a workload's own flow policy, with the
        reliability layer its credits ride on.

        ``owner`` names the params fields that set the policy; a caller
        who also set ``flow_policy`` or ``reliable`` is refused rather
        than silently overridden.
        """
        if self.flow_policy is not None or self.reliable is not None:
            raise ValueError(
                f"{owner} set flow control and reliability: leave "
                f"options.flow_policy and options.reliable unset")
        return replace(self, flow_policy=flow_policy,
                       reliable=None if flow_policy is None else True)


def raise_parcel_failure(parcel: Parcel, exc: Exception) -> None:
    """``on_parcel_failure`` hook of an application that needs every
    parcel: the run stops at the first failed or shed parcel, with its
    :class:`~repro.faults.ParcelSendError` or
    :class:`~repro.flow.ParcelShedError`, instead of spinning until its
    event budget runs out."""
    raise exc


class Locality:
    """One HPX process (== one node in all the paper's experiments)."""

    def __init__(self, runtime: "HpxRuntime", lid: int):
        self.runtime = runtime
        self.lid = lid
        self.sim = runtime.sim
        self.platform = runtime.platform
        self.cost = runtime.cost
        self.nic = runtime.fabric.add_node(lid)
        self.sched = Scheduler(self.sim, name=f"L{lid}.sched")
        self.nic.on_deliver = self.sched.notify
        self.parcelport = None  # set by HpxRuntime.boot()
        self.parcel_layer: Optional[ParcelLayer] = None
        self.workers: List[Worker] = []
        self.stats = StatSet(f"L{lid}")

    # -- tasking ------------------------------------------------------------
    def spawn(self, fn: Callable, arg: Any = NO_ARG) -> None:
        """Enqueue a task: ``fn(worker)``, or ``fn(worker, arg)`` when
        ``arg`` is given; either returns a generator or None."""
        self.sched.push(Task(fn, arg))

    # -- remote invocation -------------------------------------------------
    def apply(self, worker: Worker, dest: int, action: str,
              args: Tuple[Any, ...] = (),
              arg_sizes: Optional[Sequence[int]] = None):
        """Generator: invoke ``action`` on locality ``dest`` (§2.2 RPC path).

        ``arg_sizes`` defaults to 8 bytes per argument; a tuple is shared
        by the parcel, not copied, so a caller that sends the same sizes
        many times can build the tuple once.
        """
        runtime = self.runtime
        if action not in runtime.actions:
            raise KeyError(f"unregistered action {action!r}")
        yield worker.cpu(self.cost.parcel_create_us)
        obs = runtime.obs
        # Only a traced run numbers its parcels: ``pid`` is read by trace
        # records alone, and an untraced parcel keeps the default 0.
        parcel = Parcel(action, dest, self.lid, args,
                        () if arg_sizes is None else tuple(arg_sizes),
                        0 if obs is None else next(runtime.parcel_ids))
        self.stats.counters["parcels_created"] += 1
        if dest == self.lid:
            # Local invocation: HPX short-circuits the network entirely.
            self._spawn_parcel_task(parcel)
            return
        if obs is not None:
            obs.instant("parcel", "submit", loc=self.lid, tid=worker.name,
                        pid=parcel.pid, dest=dest, action=action)
        yield from self.parcel_layer.put_parcel(worker, parcel)

    # -- receive upcall (called by the parcelport) ---------------------------
    def on_message(self, msg: HpxMessage) -> None:
        """Deliver a fully-received HPX message: decode + run its actions.

        The message queues as itself; a worker that pops it runs
        :meth:`_decode`."""
        self.stats.inc("messages_received")
        self.sched.push(msg)

    def _decode(self, worker: Worker, msg: HpxMessage):
        """Task body: deserialize ``msg`` and queue each of its parcels."""
        cost = self.cost
        yield worker.cpu(deserialize_cost(msg, cost))
        for parcel in msg.parcels:
            yield worker.cpu(cost.task_spawn_us)
            self._spawn_parcel_task(parcel)

    def _spawn_parcel_task(self, parcel: Parcel) -> None:
        """Queue ``parcel`` for execution: the parcel is its own queue
        entry, and a worker that pops it runs :meth:`_run_action`."""
        self.stats.counters["parcels_executed"] += 1
        self.sched.push(parcel)

    def _run_action(self, worker: Worker, parcel: Parcel):
        """Task body: dispatch ``parcel`` to its registered action."""
        yield worker.cpu(self.cost.action_dispatch_us)
        body = self.runtime.actions[parcel.action](worker, *parcel.args)
        if body is not None:
            yield from body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Locality {self.lid}>"


class HpxRuntime:
    """Simulated distributed HPX instance."""

    def __init__(self, platform: PlatformSpec, n_localities: int,
                 parcelport_factory: Callable[[Locality], Any],
                 immediate: bool = False,
                 cost: Optional[CostModel] = None,
                 seed: int = 0xC0FFEE,
                 options: RunOptions = RunOptions()):
        if n_localities < 1:
            raise ValueError("need at least one locality")
        if n_localities > platform.max_nodes:
            raise ValueError(
                f"{platform.name} allows at most {platform.max_nodes} nodes "
                f"(asked for {n_localities}) — same limit as the paper")
        self.platform = platform
        self.cost = cost if cost is not None else platform.cost
        self.options = options
        self.sim = Simulator()
        self.rng = RngPool(seed)
        self.fabric = Fabric(self.sim, platform.network)
        # Fault injection: a zero plan (or None) means *no* injector at
        # all — the fault-free fast paths stay byte-identical to a build
        # without the faults layer.
        plan = options.fault_plan
        if plan is not None and not plan.is_zero:
            self.fault_injector: Optional[FaultInjector] = FaultInjector(
                self.sim, plan, self.rng.stream("faults"))
            self.fabric.injector = self.fault_injector
        else:
            self.fault_injector = None
        self.retry_policy = (options.retry_policy
                             if options.retry_policy is not None
                             else RetryPolicy())
        #: parcelports build their reliability layer iff this is True;
        #: defaults to "faults are active", overridable for tests that
        #: want the ack protocol without losses (or vice versa)
        self.reliable = (options.reliable if options.reliable is not None
                         else self.fault_injector is not None)
        #: end-to-end flow control (credits + bounded backlogs); None keeps
        #: every flow check compiled out of the data path
        self.flow_policy = options.flow_policy
        #: hook(parcel, exc) invoked for every parcel of a message that
        #: exhausted its retries (or was shed under overload) — applications
        #: fail futures here
        self.on_parcel_failure: Optional[Callable] = None
        self.actions: Dict[str, Callable] = {}
        #: per-run id counters for parcels and HPX messages (the trace
        #: correlation keys ``pid`` and ``mid``): two identical runs in
        #: one process number them, and so export them, identically.
        #: ``pid`` is drawn only while this runtime traces.
        self.parcel_ids = itertools.count()
        self.message_ids = itertools.count()
        self.running = True
        self.immediate = immediate
        #: span recorder (repro.obs); None keeps every instrumentation
        #: site compiled down to a single ``is not None`` check — a
        #: traced-off run is byte-identical to a build without repro.obs
        self.obs: Optional[SpanRecorder] = (
            SpanRecorder(self.sim, spec=options.trace)
            if options.trace else None)
        self.localities: List[Locality] = [
            Locality(self, lid) for lid in range(n_localities)]
        if self.obs is not None:
            self.fabric.obs = self.obs
            for loc in self.localities:
                loc.nic.obs = self.obs
        #: the AdaptiveController (repro.adapt), built at boot() when
        #: ``options.adapt`` is set; None keeps every adaptation hook down
        #: to a single ``is not None`` check — an adaptive-off run is
        #: byte-identical to a build without repro.adapt
        self.adapt = None
        self._pp_factory = parcelport_factory
        self._booted = False

    # -- setup -------------------------------------------------------------
    def register_action(self, name: str, fn: Callable) -> None:
        """Register ``fn(worker, *args) -> generator | None`` as an action."""
        if name in self.actions:
            raise ValueError(f"action {name!r} already registered")
        self.actions[name] = fn

    def action(self, name: str) -> Callable:
        """Decorator form of :meth:`register_action`."""
        def deco(fn: Callable) -> Callable:
            self.register_action(name, fn)
            return fn
        return deco

    def boot(self) -> None:
        """Create parcelports and start worker (and progress) threads."""
        if self._booted:
            raise RuntimeError("runtime already booted")
        self._booted = True
        for loc in self.localities:
            loc.parcelport = self._pp_factory(loc)
            loc.parcel_layer = ParcelLayer(loc, immediate=self.immediate)
        # The adaptive controller attaches after parcelports and layers
        # exist but before any starts, so every stack sees the shared
        # state from its first event onward.
        if self.options.adapt is not None:
            from ..adapt import AdaptiveController
            self.adapt = AdaptiveController(self, self.options.adapt)
        # Parcelports exist on all localities before any starts (so the
        # first message cannot arrive at an unbooted peer).
        for loc in self.localities:
            loc.parcelport.start()
            # A pinned progress thread (the rp/pin configurations) runs on
            # its own simulated core *in addition* to the workers: on the
            # real 128-core nodes its core share is 1/128 (negligible),
            # and charging it 1/16 of our scaled-down core count would
            # grossly exaggerate its cost.
            n_cores = self.platform.sim_cores_per_node
            for core in range(n_cores):
                w = Worker(loc, core)
                loc.workers.append(w)
                w.start()

    # -- execution -------------------------------------------------------------
    def locality(self, lid: int) -> Locality:
        return self.localities[lid]

    @property
    def now(self) -> float:
        return self.sim.now

    def new_future(self) -> Future:
        return Future(self.sim)

    def new_latch(self, n: int) -> Latch:
        return Latch(self.sim, n)

    def run_until(self, what: "Future | Latch | Event | float",
                  max_events: Optional[int] = None) -> Any:
        """Run the simulation until a future/latch/event fires (or a time)."""
        if not self._booted:
            self.boot()
        if isinstance(what, (Future, Latch)):
            what = what.wait()
        return self.sim.run(until=what, max_events=max_events)

    def shutdown(self) -> None:
        """Stop worker loops (the simulator can then drain quickly)."""
        self.running = False
        for loc in self.localities:
            loc.sched.notify_all()

    # -- reporting -----------------------------------------------------------
    def metrics(self):
        """One :class:`~repro.obs.metrics.MetricsRegistry` view over this
        runtime: fault counters, flow gauges, parcelport/layer/worker
        stats, and span-derived histograms when tracing is on."""
        from ..obs.metrics import build_runtime_metrics
        return build_runtime_metrics(self)

    def aggregate_stats(self) -> StatSet:
        total = StatSet("runtime")
        for loc in self.localities:
            total.merge(loc.stats)
            total.merge(loc.sched.stats)
            if loc.parcel_layer is not None:
                total.merge(loc.parcel_layer.stats)
        return total

    def reported_faults(self) -> Dict[str, int]:
        """The fault counters a run's result reports.

        :meth:`fault_summary` when the run was given a fault plan or a
        flow policy, else empty: a plain run reports exactly what it
        reported before those layers existed.
        """
        if self.options.fault_plan is None and self.flow_policy is None:
            return {}
        return self.fault_summary()

    def fault_summary(self) -> Dict[str, int]:
        """Fault-injection counters, merged across all layers.

        Empty dict when no injector is active and reliability is off.
        """
        out: Dict[str, int] = {}
        if self.fault_injector is not None:
            out.update(self.fault_injector.stats.counters)
        keys = ("retransmits", "sends_failed", "dup_deliveries",
                "acks_received", "acks_stale", "send_chains_aborted",
                "recv_chains_expired", "tracked_sends")
        flow_keys = ("credit_stalls", "credits_consumed",
                     "credits_replenished", "backlogged_sends",
                     "backlog_refusals", "backlog_drains", "pool_retries",
                     "pool_backoffs", "eager_fallbacks")
        layer_keys = ("messages_failed", "parcels_failed", "parcels_shed",
                      "puts_deferred", "drains_deferred", "parcels_requeued")
        for loc in self.localities:
            pp = loc.parcelport
            if pp is not None:
                if getattr(pp, "reliability", None) is not None:
                    for k in keys:
                        v = pp.stats.counters.get(k, 0)
                        if v:
                            out[k] = out.get(k, 0) + v
                for k in flow_keys:
                    v = pp.stats.counters.get(k, 0)
                    if v:
                        out[k] = out.get(k, 0) + v
                for dev in getattr(pp, "devices", []):
                    for src, k in (("exhaustions", "pool_exhaustions"),
                                   ("squeezed", "pool_squeezed")):
                        v = dev.pool.stats.counters.get(src, 0)
                        if v:
                            out[k] = out.get(k, 0) + v
            if loc.parcel_layer is not None:
                for k in layer_keys:
                    v = loc.parcel_layer.stats.counters.get(k, 0)
                    if v:
                        out[k] = out.get(k, 0) + v
        return out

    def flow_summary(self) -> Dict[str, Any]:
        """Per-peer flow-control gauges (credits left, queue depths).

        Empty dict when no :class:`~repro.flow.FlowControlPolicy` is set.
        """
        if self.flow_policy is None:
            return {}
        out: Dict[str, Any] = {}
        for loc in self.localities:
            pp = loc.parcelport
            pl = loc.parcel_layer
            if pp is None:
                continue
            entry: Dict[str, Any] = {}
            rel = getattr(pp, "reliability", None)
            if rel is not None:
                gauges = rel.credit_gauges()
                if gauges:
                    entry["credits"] = gauges
                entry["in_flight"] = rel.in_flight
            depths = pp.backlog_depths()
            if depths:
                entry["backlog"] = depths
            entry["backlog_peak"] = pp.backlog_peak
            if pl is not None:
                queued = pl.queued_parcels()
                if queued:
                    entry["queued_parcels"] = queued
            out[f"L{loc.lid}"] = entry
        return out
