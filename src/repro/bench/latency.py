"""Latency microbenchmark (§4.2, Figs 7–9).

Multi-message ping-pong: ``window`` chains of tasks bounce a fixed-size
message between two localities for ``steps`` iterations; every ping and
every pong is a separate HPX task.  One-way latency = total time /
(2 × steps), as the paper computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from ..hpx_rt.platform import EXPANSE, PlatformSpec
from ..hpx_rt.runtime import RunOptions
from ..parcelport import PPConfig
from .. import make_runtime

__all__ = ["LatencyParams", "LatencyResult", "run_latency"]


@dataclass(frozen=True)
class LatencyParams:
    msg_size: int = 8
    window: int = 1           #: concurrent ping-pong chains (1–64 in Fig 8/9)
    steps: int = 50           #: chain length (paper's "step number")
    platform: PlatformSpec = EXPANSE
    max_events: int = 20_000_000

    def with_(self, **kw) -> "LatencyParams":
        return replace(self, **kw)


@dataclass
class LatencyResult:
    config: str
    params: LatencyParams
    total_time_us: float
    #: ping-pong chains killed by a message failure (faults only)
    failed_chains: int = 0
    #: merged fault counters from the runtime (empty without a fault plan)
    faults: Dict[str, int] = field(default_factory=dict)
    #: the run's SpanRecorder when tracing was requested (else None);
    #: deliberately excluded from :meth:`as_dict` so traced and untraced
    #: runs report byte-identical results
    obs: Any = None
    #: the run's MetricsRegistry when tracing was requested (else None)
    metrics: Any = None

    @property
    def one_way_latency_us(self) -> float:
        """Average one-way message latency (the paper's y axis)."""
        return self.total_time_us / (2 * self.params.steps)

    def as_dict(self) -> Dict[str, float]:
        out = {"one_way_latency_us": self.one_way_latency_us}
        if self.faults or self.failed_chains:
            out["failed_chains"] = float(self.failed_chains)
            for k, v in sorted(self.faults.items()):
                out[f"fault.{k}"] = float(v)
        return out


def run_latency(config: "PPConfig | str", params: LatencyParams,
                seed: int = 0xC0FFEE,
                options: RunOptions = RunOptions()) -> LatencyResult:
    """One latency run: ``window`` chains × ``steps`` round trips.

    With a fault plan in ``options``, a chain whose ping or pong exhausts
    its retries is counted as failed and released — the run still
    terminates.  A flow policy adds credit/backlog throttling (a shed
    ping or pong likewise kills its chain).
    """
    if isinstance(config, str):
        config = PPConfig.parse(config)
    p = params
    rt = make_runtime(config, platform=p.platform, n_localities=2, seed=seed,
                      options=options)
    sim = rt.sim
    done = rt.new_latch(p.window)
    size = p.msg_size
    state = {"failed_chains": 0}

    def on_fail(parcel, exc):
        # Exactly one ping or pong is in flight per chain, so a failed
        # parcel kills exactly one chain: release its latch slot.
        state["failed_chains"] += 1
        done.count_down()
    rt.on_parcel_failure = on_fail

    def ping(worker, token):
        # Runs on locality 1; answer with a pong.
        yield from worker.locality.apply(worker, 0, "pong", (token,),
                                         arg_sizes=[size])

    def pong(worker, token):
        # Runs on locality 0; continue or finish the chain.
        chain, step = token
        if step + 1 < p.steps:
            yield from worker.locality.apply(worker, 1, "ping",
                                             ((chain, step + 1),),
                                             arg_sizes=[size])
        else:
            done.count_down()

    rt.register_action("ping", ping)
    rt.register_action("pong", pong)

    def starter(worker):
        for chain in range(p.window):
            yield from rt.locality(0).apply(worker, 1, "ping",
                                            ((chain, 0),),
                                            arg_sizes=[size])

    rt.boot()
    rt.locality(0).spawn(starter)
    rt.run_until(done, max_events=p.max_events)
    return LatencyResult(config=config.label, params=p,
                         total_time_us=sim.now,
                         failed_chains=state["failed_chains"],
                         faults=rt.reported_faults(),
                         obs=rt.obs,
                         metrics=rt.metrics() if rt.obs is not None else None)
