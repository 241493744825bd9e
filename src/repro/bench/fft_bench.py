"""Distributed-FFT benchmark wrapper: the incast workload for the bench layer.

Runs :class:`~repro.apps.fft.FftDriver` on a fresh runtime per point and
flattens the result into the primitive metric dict the sweep engine /
figure drivers consume.  A :class:`~repro.flow.FlowControlPolicy` (with
the reliability layer it rides on) can be switched on per point — that
is what lets the incast sweep show credit stalls and deferred sends at
the top of the size ladder — and ``trace=`` produces the span recorder
the critical-path breakdown is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..faults import FaultPlan, RetryPolicy
from ..flow import FlowControlPolicy
from ..hpx_rt.platform import EXPANSE, PlatformSpec
from ..parcelport import PPConfig
from .. import make_runtime

__all__ = ["FftBenchParams", "FftBenchResult", "run_fft"]


@dataclass(frozen=True)
class FftBenchParams:
    """One FFT sweep point (quick defaults; see docs/COLLECTIVES.md)."""

    n1: int = 16
    n2: int = 16
    n_localities: int = 4
    iterations: int = 1
    #: per-row-segment messages (the realistic, backlog-deepening mode)
    fragment: bool = True
    platform: PlatformSpec = EXPANSE
    #: >0 switches on credit-based flow control (plus the reliability
    #: layer whose acks carry the credits) with this per-peer window
    credit_window: int = 0
    #: sender backlog bound when flow control is on (0 = unbounded)
    max_backlog: int = 0
    max_events: int = 20_000_000

    def with_(self, **kw) -> "FftBenchParams":
        return replace(self, **kw)

    def flow_policy(self) -> Optional[FlowControlPolicy]:
        if self.credit_window <= 0:
            return None
        return FlowControlPolicy(credit_window=self.credit_window,
                                 max_backlog=self.max_backlog)

    @property
    def transpose_msg_bytes(self) -> int:
        """Wire size of one transpose message at this point."""
        from ..apps.fft import COMPLEX_BYTES
        seg = COMPLEX_BYTES * (self.n2 // self.n_localities)
        if self.fragment:
            return seg
        return seg * (self.n1 // self.n_localities)


@dataclass
class FftBenchResult:
    config: str
    params: FftBenchParams
    phase_times_us: Dict[str, float]      #: summed over iterations
    total_time_us: float
    points_per_second: float
    checksum: complex
    #: merged fault/flow counters (empty without faults or flow control)
    faults: Dict[str, int] = field(default_factory=dict)
    #: the run's SpanRecorder when tracing was requested (else None);
    #: excluded from :meth:`as_dict` so traced runs report identically
    obs: Any = None
    metrics: Any = None
    #: AdaptiveController summary (empty without adaptation)
    adapt: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "points_per_second": self.points_per_second,
            "total_time_us": self.total_time_us,
            "row_fft1_us": self.phase_times_us["row_fft1"],
            "transpose_us": self.phase_times_us["transpose"],
            "row_fft2_us": self.phase_times_us["row_fft2"],
        }
        if self.faults:
            for k, v in sorted(self.faults.items()):
                out[f"fault.{k}"] = float(v)
        for k, v in sorted(self.adapt.items()):
            out[f"adapt.{k}"] = float(v)
        return out


def run_fft(config: "PPConfig | str", params: FftBenchParams,
            seed: int = 0xC0FFEE,
            fault_plan: Optional[FaultPlan] = None,
            retry_policy: Optional[RetryPolicy] = None,
            trace: "str | bool | None" = None,
            adapt: Any = None) -> FftBenchResult:
    """One full distributed-FFT run for one configuration."""
    from ..apps.fft import FftConfig, FftDriver
    if isinstance(config, str):
        config = PPConfig.parse(config)
    p = params
    flow = p.flow_policy()
    kw: Dict[str, Any] = {}
    if flow is not None:
        # credits ride on the reliability layer's end-to-end acks
        kw["reliable"] = True
    if adapt is not None:
        kw["adapt"] = adapt
    rt = make_runtime(config, platform=p.platform,
                      n_localities=p.n_localities, seed=seed,
                      fault_plan=fault_plan, retry_policy=retry_policy,
                      flow_policy=flow, trace=trace, **kw)
    driver = FftDriver(rt, FftConfig(n1=p.n1, n2=p.n2,
                                     iterations=p.iterations,
                                     fragment=p.fragment))
    res = driver.run(max_events=p.max_events)
    phase_sums = {k: sum(v) for k, v in res.phase_times_us.items()}
    return FftBenchResult(
        config=config.label, params=p,
        phase_times_us=phase_sums,
        total_time_us=res.total_time_us,
        points_per_second=res.points_per_second,
        checksum=res.checksum,
        faults=rt.fault_summary()
        if (fault_plan is not None or flow is not None) else {},
        obs=rt.obs,
        metrics=rt.metrics() if rt.obs is not None else None,
        adapt=rt.adapt.summary() if rt.adapt is not None else {})
