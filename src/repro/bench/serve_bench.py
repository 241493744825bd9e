"""Serving-tier benchmark wrapper: open-loop RPC load for the bench layer.

Runs :class:`~repro.apps.serve.ServeDriver` on a fresh runtime per point
and flattens the result into the primitive metric dict the sweep engine /
figure drivers consume.  Every point runs under a **shed-mode**
:class:`~repro.flow.FlowControlPolicy` (credits riding the reliability
acks + bounded backlogs with ``overflow="shed"``), so past saturation the
stack *rejects* excess requests instead of growing unbounded queues —
shedding as admission control, the regime ``serve_sweep`` maps per
parcelport config family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict

from ..flow import OVERFLOW_SHED, FlowControlPolicy
from ..hpx_rt.platform import EXPANSE, PlatformSpec
from ..hpx_rt.runtime import RunOptions
from ..parcelport import PPConfig
from .. import make_runtime

if TYPE_CHECKING:
    from ..apps.serve import ServeConfig

__all__ = ["ServeBenchParams", "ServeBenchResult", "run_serve"]


@dataclass(frozen=True)
class ServeBenchParams:
    """One serving sweep point (quick defaults; see docs/SERVING.md)."""

    offered_kps: float = 100.0
    horizon_us: float = 2000.0
    n_localities: int = 4          #: gateway + (n_localities - 1) servers
    n_clients: int = 1_000_000
    arrival: str = "poisson"       #: or "bursty"
    slo_us: float = 200.0
    drain_us: float = 2000.0
    req_bytes_max: int = 16384
    resp_bytes_max: int = 32768
    service_base_us: float = 1.0
    platform: PlatformSpec = EXPANSE
    #: per-peer credit window (credits ride the reliability acks)
    credit_window: int = 8
    #: sender backlog bound; a full backlog *sheds* (admission control)
    max_backlog: int = 16
    #: parcel-layer queue bound per destination (sheds when full)
    max_queued_parcels: int = 64
    max_events: int = 30_000_000

    def with_(self, **kw) -> "ServeBenchParams":
        return replace(self, **kw)

    def flow_policy(self) -> FlowControlPolicy:
        return FlowControlPolicy(credit_window=self.credit_window,
                                 max_backlog=self.max_backlog,
                                 max_queued_parcels=self.max_queued_parcels,
                                 overflow=OVERFLOW_SHED)

    def serve_config(self) -> ServeConfig:
        from ..apps.serve import ServeConfig
        return ServeConfig(n_clients=self.n_clients,
                           offered_kps=self.offered_kps,
                           horizon_us=self.horizon_us,
                           arrival=self.arrival,
                           req_bytes_max=self.req_bytes_max,
                           resp_bytes_max=self.resp_bytes_max,
                           service_base_us=self.service_base_us,
                           slo_us=self.slo_us, drain_us=self.drain_us)


@dataclass
class ServeBenchResult:
    config: str
    params: ServeBenchParams
    offered: int
    delivered: int
    shed_requests: int
    shed_responses: int
    failed: int
    in_flight: int
    deadline_misses: int
    goodput_kps: float
    achieved_kps: float
    offered_kps: float          #: measured (realized arrivals / horizon)
    slo_attainment: float
    p50_us: float
    p99_us: float
    p999_us: float
    #: merged fault/flow counters (credit stalls, backlog refusals, sheds)
    faults: Dict[str, int] = field(default_factory=dict)
    #: the run's SpanRecorder when tracing was requested (else None);
    #: excluded from :meth:`as_dict` so traced runs report identically
    obs: Any = None
    metrics: Any = None
    #: AdaptiveController summary (empty without adaptation)
    adapt: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "offered_kps": self.offered_kps,
            "achieved_kps": self.achieved_kps,
            "goodput_kps": self.goodput_kps,
            "slo_attainment": self.slo_attainment,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "offered": float(self.offered),
            "delivered": float(self.delivered),
            "shed_requests": float(self.shed_requests),
            "shed_responses": float(self.shed_responses),
            "failed": float(self.failed),
            "in_flight": float(self.in_flight),
            "deadline_misses": float(self.deadline_misses),
        }
        for k, v in sorted(self.faults.items()):
            out[f"fault.{k}"] = float(v)
        for k, v in sorted(self.adapt.items()):
            out[f"adapt.{k}"] = float(v)
        return out


def run_serve(config: "PPConfig | str", params: ServeBenchParams,
              seed: int = 0xC0FFEE,
              options: RunOptions = RunOptions()) -> ServeBenchResult:
    """One full open-loop serving run for one configuration.

    The shed-mode flow policy and the reliability layer its credits ride
    on come from ``params``; ``options`` must leave both unset.
    """
    from ..apps.serve import ServeDriver
    if isinstance(config, str):
        config = PPConfig.parse(config)
    p = params
    options = options.with_flow(
        p.flow_policy(),
        "ServeBenchParams.credit_window/max_backlog/max_queued_parcels")
    rt = make_runtime(config, platform=p.platform,
                      n_localities=p.n_localities, seed=seed,
                      options=options)
    driver = ServeDriver(rt, p.serve_config())
    res = driver.run(max_events=p.max_events)
    pct = res.percentiles()
    return ServeBenchResult(
        config=config.label, params=p,
        offered=res.offered, delivered=res.delivered,
        shed_requests=res.shed_requests, shed_responses=res.shed_responses,
        failed=res.failed, in_flight=res.in_flight,
        deadline_misses=res.deadline_misses,
        goodput_kps=res.goodput_kps, achieved_kps=res.achieved_kps,
        offered_kps=res.offered_kps, slo_attainment=res.slo_attainment,
        p50_us=pct["p50_us"], p99_us=pct["p99_us"], p999_us=pct["p999_us"],
        faults=rt.reported_faults(),
        obs=rt.obs,
        metrics=rt.metrics() if rt.obs is not None else None,
        adapt=rt.adapt.summary() if rt.adapt is not None else {})
