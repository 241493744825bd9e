"""Open-loop RPC serving tier on the HPX runtime: the "millions of users"
workload of ROADMAP.md.

Model
-----

One locality (lid 0) is the **client gateway**: it aggregates the open-loop
request stream of a large logical client population (``n_clients``, default
one million — client identity is an id drawn per request, not per-client
simulated state, so the population scales without cost).  The remaining
localities are **servers**.  Each request:

1. *arrives* at the gateway at a precomputed instant (Poisson or bursty
   ON/OFF process — see :mod:`.arrivals`) with a heavy-tailed payload, a
   service demand and a deadline, all drawn from named seed substreams
   **before the simulation starts** — the offered workload is a pure
   function of ``(config, seed)`` whatever the network later does;
2. travels as a **request parcel** to its server (client-affine routing:
   ``server = 1 + client_id % n_servers``), which executes the configured
   service-time model and replies with a **response parcel**;
3. completes back at the gateway, where end-to-end latency (from the
   *arrival instant*, so client-side queueing counts) and deadline
   attainment are recorded.

Open loop means arrivals never wait for completions: when the stack
saturates, queues — not the arrival process — absorb the excess.  That is
exactly where PR-2 flow control becomes **admission control**: with an
``overflow="shed"`` :class:`~repro.flow.FlowControlPolicy`, requests that
cannot be admitted are dropped at the gateway (and responses, under
extreme incast, at the servers) and surface as
:class:`~repro.flow.ParcelShedError` through ``on_parcel_failure`` —
counted here per category, never lost.

Accounting is exact and closed::

    offered = delivered + shed_requests + shed_responses + failed + in_flight

where ``in_flight`` is whatever the quiesce horizon caught mid-stack
(asserted deterministic and conservation-exact by ``tests/test_serve_app``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...hpx_rt.future import Future
from ...hpx_rt.runtime import HpxRuntime
from ...sim.stats import StatSet, TimeSeries
from .arrivals import (ARRIVAL_KINDS, bounded_pareto, bursty_arrival_times,
                       poisson_arrival_times)

__all__ = ["ServeConfig", "Request", "ServeResult", "ServeDriver",
           "STATUS_PENDING", "STATUS_OK", "STATUS_SHED_REQ",
           "STATUS_SHED_RESP", "STATUS_FAILED"]

#: request lifecycle terminal states
STATUS_PENDING = 0    #: still somewhere in the stack at quiesce
STATUS_OK = 1         #: response delivered to the gateway
STATUS_SHED_REQ = 2   #: request shed by admission control (never served)
STATUS_SHED_RESP = 3  #: served, but the response was shed
STATUS_FAILED = 4     #: a parcel exhausted retries (faulted runs only)


@dataclass(frozen=True)
class ServeConfig:
    """Workload shape + service model for one serving run."""

    #: logical client population behind the gateway (id space only —
    #: per-request ids are drawn from it, no per-client state is kept)
    n_clients: int = 1_000_000
    #: aggregate offered request rate, K requests/s (== requests per ms)
    offered_kps: float = 100.0
    #: arrival window (virtual µs); requests arrive on [0, horizon_us)
    horizon_us: float = 2000.0
    #: "poisson" or "bursty" (heavy-tailed ON/OFF, same long-run rate)
    arrival: str = "poisson"
    #: ON-period time fraction for the bursty process
    burst_on_fraction: float = 0.4
    #: mean ON-period length for the bursty process (µs)
    burst_mean_on_us: float = 150.0
    #: request payload: bounded Pareto [lo, hi] with shape alpha
    req_bytes_min: int = 64
    req_bytes_max: int = 16384
    req_alpha: float = 1.3
    #: response payload: bounded Pareto, typically heavier than requests
    resp_bytes_min: int = 128
    resp_bytes_max: int = 32768
    resp_alpha: float = 1.2
    #: service model: base + per-KiB scan cost, lognormal-ish jitter cv
    service_base_us: float = 1.0
    service_per_kb_us: float = 0.25
    service_cv: float = 0.3
    #: end-to-end deadline per request (µs from its arrival instant)
    slo_us: float = 200.0
    #: post-horizon drain before the run quiesces and counts in-flight
    drain_us: float = 2000.0

    def validate(self, n_localities: int) -> None:
        if n_localities < 2:
            raise ValueError("serving needs >= 2 localities "
                             "(one gateway + servers)")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"arrival must be one of {ARRIVAL_KINDS}, "
                             f"got {self.arrival!r}")
        if self.n_clients < 1:
            raise ValueError("need at least one logical client")
        if self.offered_kps <= 0.0 or self.horizon_us <= 0.0:
            raise ValueError("offered_kps and horizon_us must be positive")
        if self.slo_us <= 0.0:
            raise ValueError("slo_us must be positive")
        if self.drain_us < 0.0:
            raise ValueError("drain_us must be >= 0")


@dataclass(frozen=True)
class Request:
    """One fully-precomputed request (immutable once the schedule exists)."""

    rid: int
    t_arrive: float     #: arrival instant at the gateway (µs)
    client_id: int      #: logical client identity (0 .. n_clients-1)
    server: int         #: destination locality id
    req_bytes: int
    resp_bytes: int
    service_us: float   #: server-side service demand (thread-weighted)
    deadline_us: float  #: absolute completion deadline (µs)


@dataclass
class ServeResult:
    """Outcome of one serving run (all counts are requests)."""

    config: ServeConfig
    n_localities: int
    offered: int
    delivered: int
    shed_requests: int
    shed_responses: int
    failed: int
    in_flight: int
    deadline_misses: int      #: delivered but past their deadline
    #: end-to-end latency samples of delivered requests (completion order)
    latency: TimeSeries = field(default_factory=TimeSeries)
    #: virtual time of the last accounted completion (or quiesce)
    t_end_us: float = 0.0

    @property
    def in_slo(self) -> int:
        """Requests that completed within their deadline (the goodput)."""
        return self.delivered - self.deadline_misses

    @property
    def shed(self) -> int:
        return self.shed_requests + self.shed_responses

    @property
    def offered_kps(self) -> float:
        """Measured offered load over the horizon, K requests/s."""
        return self.offered / self.config.horizon_us * 1e3

    @property
    def achieved_kps(self) -> float:
        """Delivered responses per horizon time, K requests/s."""
        return self.delivered / self.config.horizon_us * 1e3

    @property
    def goodput_kps(self) -> float:
        """In-SLO responses per horizon time, K requests/s."""
        return self.in_slo / self.config.horizon_us * 1e3

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests answered within deadline."""
        return self.in_slo / self.offered if self.offered else 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50_us": self.latency.p50(), "p99_us": self.latency.p99(),
                "p999_us": self.latency.p999()}

    def check_conservation(self) -> None:
        """Assert the accounting identity that closes every request."""
        total = (self.delivered + self.shed_requests + self.shed_responses
                 + self.failed + self.in_flight)
        if total != self.offered:
            raise AssertionError(
                f"serve accounting leak: offered={self.offered} != "
                f"delivered={self.delivered} + shed_req={self.shed_requests}"
                f" + shed_resp={self.shed_responses} + failed={self.failed}"
                f" + in_flight={self.in_flight}")


class ServeDriver:
    """Registers the request/response actions and drives the open loop."""

    def __init__(self, runtime: HpxRuntime,
                 config: Optional[ServeConfig] = None):
        self.rt = runtime
        self.cfg = config or ServeConfig()
        self.p = len(runtime.localities)
        self.cfg.validate(self.p)
        self.n_servers = self.p - 1
        self.stats = StatSet("serve")
        self.requests: List[Request] = self._make_schedule()
        self._status = [STATUS_PENDING] * len(self.requests)
        self._accounted = 0
        self._done: Optional[Future] = None
        self._t_end = 0.0

    # ------------------------------------------------------------------
    # the precomputed schedule (pure function of config + runtime seed)
    # ------------------------------------------------------------------
    def _make_schedule(self) -> List[Request]:
        cfg = self.cfg
        rng = self.rt.rng
        arr = rng.stream("serve.arrivals")
        if cfg.arrival == "poisson":
            times = poisson_arrival_times(arr, cfg.offered_kps,
                                          cfg.horizon_us)
        else:
            times = bursty_arrival_times(
                arr, cfg.offered_kps, cfg.horizon_us,
                on_fraction=cfg.burst_on_fraction,
                mean_on_us=cfg.burst_mean_on_us)
        clients = rng.stream("serve.clients")
        req_sz = rng.stream("serve.req_bytes")
        resp_sz = rng.stream("serve.resp_bytes")
        service = rng.stream("serve.service")
        out: List[Request] = []
        for rid, t in enumerate(times):
            cid = int(clients.integers(0, cfg.n_clients))
            rb = int(bounded_pareto(req_sz, cfg.req_alpha,
                                    cfg.req_bytes_min, cfg.req_bytes_max))
            sb = int(bounded_pareto(resp_sz, cfg.resp_alpha,
                                    cfg.resp_bytes_min, cfg.resp_bytes_max))
            base = (cfg.service_base_us
                    + cfg.service_per_kb_us * (rb + sb) / 1024.0)
            if cfg.service_cv > 0.0:
                jitter = float(service.normal(1.0, cfg.service_cv))
                svc = base * max(jitter, 0.1)
            else:
                svc = base
            out.append(Request(rid=rid, t_arrive=t, client_id=cid,
                               server=1 + cid % self.n_servers,
                               req_bytes=rb, resp_bytes=sb, service_us=svc,
                               deadline_us=t + cfg.slo_us))
        return out

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> ServeResult:
        rt, sim = self.rt, self.rt.sim
        rt.register_action("serve_req", self._on_request)
        rt.register_action("serve_resp", self._on_response)
        if rt.on_parcel_failure is not None:
            raise RuntimeError("ServeDriver needs the runtime's "
                               "on_parcel_failure hook for itself")
        rt.on_parcel_failure = self._on_parcel_failure
        #: exported for MetricsRegistry integration (rt.metrics())
        rt.serve_stats = self.stats
        self._done = Future(sim)
        self._t_quiesce = self.cfg.horizon_us + self.cfg.drain_us
        sim.process(self._injector(), name="serve_injector")
        sim.process(self._quiesce_timer(), name="serve_quiesce")
        rt.run_until(self._done, max_events=max_events)
        if not self._done.done:
            raise RuntimeError("serve run did not complete (event budget "
                               "exhausted before the quiesce horizon)")
        return self._assemble()

    # ------------------------------------------------------------------
    # gateway side
    # ------------------------------------------------------------------
    def _injector(self):
        """Open-loop arrival process: spawns client tasks on schedule,
        never waiting for completions."""
        sim = self.rt.sim
        gateway = self.rt.locality(0)
        for req in self.requests:
            dt = req.t_arrive - sim.now
            if dt > 0.0:
                yield sim.timeout(dt)
            gateway.spawn(self._make_client_task(req))
            self.stats.inc("requests_offered")
        if False:  # pragma: no cover - keeps this a generator when empty
            yield

    def _make_client_task(self, req: Request):
        def task(worker):
            yield from worker.locality.apply(
                worker, req.server, "serve_req", (req.rid,),
                arg_sizes=[req.req_bytes])
        return task

    def _on_response(self, worker, rid: int):
        req = self.requests[rid]
        if self._status[rid] != STATUS_PENDING:
            # A duplicate (possible only under faults without reliability
            # dedup) must not double-account.
            self.stats.inc("dup_responses")
            return None
        now = self.rt.sim.now
        self._status[rid] = STATUS_OK
        self.stats.inc("responses_delivered")
        self.stats.sample("latency_us", now, now - req.t_arrive)
        if now > req.deadline_us:
            self.stats.inc("deadline_misses")
        self._account(now)
        return None

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _on_request(self, worker, rid: int):
        req = self.requests[rid]
        self.stats.inc("requests_served")
        yield from worker.compute_granular(req.service_us)
        yield from worker.locality.apply(
            worker, 0, "serve_resp", (req.rid,),
            arg_sizes=[req.resp_bytes])

    # ------------------------------------------------------------------
    # overload / fault bookkeeping
    # ------------------------------------------------------------------
    def _on_parcel_failure(self, parcel, exc: Exception) -> None:
        from ...flow import ParcelShedError
        rid = parcel.args[0]
        if self._status[rid] != STATUS_PENDING:
            return
        shed = isinstance(exc, ParcelShedError)
        if parcel.action == "serve_req":
            self._status[rid] = STATUS_SHED_REQ if shed else STATUS_FAILED
            self.stats.inc("requests_shed" if shed else "requests_failed")
        else:
            self._status[rid] = STATUS_SHED_RESP if shed else STATUS_FAILED
            self.stats.inc("responses_shed" if shed else "responses_failed")
        self._account(self.rt.sim.now)

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _account(self, now: float) -> None:
        self._accounted += 1
        self._t_end = now
        if (self._accounted == len(self.requests)
                and not self._done.done):
            self._done.set_result(now)

    def _quiesce_timer(self):
        sim = self.rt.sim
        yield sim.timeout(self._t_quiesce - sim.now)
        if not self._done.done:
            self._t_end = sim.now
            self._done.set_result(sim.now)

    def _assemble(self) -> ServeResult:
        counts = {STATUS_OK: 0, STATUS_SHED_REQ: 0, STATUS_SHED_RESP: 0,
                  STATUS_FAILED: 0, STATUS_PENDING: 0}
        for st in self._status:
            counts[st] += 1
        self.stats.counters["requests_in_flight"] = counts[STATUS_PENDING]
        lat = self.stats.series.get("latency_us") or TimeSeries()
        res = ServeResult(
            config=self.cfg, n_localities=self.p,
            offered=len(self.requests),
            delivered=counts[STATUS_OK],
            shed_requests=counts[STATUS_SHED_REQ],
            shed_responses=counts[STATUS_SHED_RESP],
            failed=counts[STATUS_FAILED],
            in_flight=counts[STATUS_PENDING],
            deadline_misses=self.stats.get("deadline_misses"),
            latency=lat, t_end_us=self._t_end)
        res.check_conservation()
        return res
