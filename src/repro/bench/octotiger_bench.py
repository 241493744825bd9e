"""Octo-Tiger application benchmark (§5, Figs 10–11)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..hpx_rt.platform import EXPANSE, PlatformSpec
from ..parcelport import PPConfig
from .. import make_runtime

__all__ = ["OctoTigerBenchParams", "run_octotiger"]


@dataclass(frozen=True)
class OctoTigerBenchParams:
    platform: PlatformSpec = EXPANSE
    n_localities: int = 4
    paper_level: int = 6      #: 6 on Expanse, 5 on Rostam (§5)
    n_steps: int = 5          #: the paper's stop step
    max_events: int = 60_000_000

    def with_(self, **kw) -> "OctoTigerBenchParams":
        return replace(self, **kw)


def run_octotiger(config: "PPConfig | str", params: OctoTigerBenchParams,
                  seed: int = 0xC0FFEE) -> Dict[str, float]:
    """One Octo-Tiger run; returns the Fig 10/11 metric (steps/s) and
    structure counters."""
    from ..apps.octotiger import OctoTigerConfig, OctoTigerDriver
    from ..sim.shard.context import ShardingUnsupported, current_context
    ctx = current_context()
    if ctx is not None and ctx.n_shards > 1:
        raise ShardingUnsupported(
            "the octotiger proxy's result depends on cross-locality "
            "scheduler state that the sharded engine does not merge; "
            "run it without --shards")
    if isinstance(config, str):
        config = PPConfig.parse(config)
    p = params
    rt = make_runtime(config, platform=p.platform,
                      n_localities=p.n_localities, seed=seed)
    ot_cfg = OctoTigerConfig.for_paper_level(p.paper_level,
                                             n_steps=p.n_steps)
    driver = OctoTigerDriver(rt, ot_cfg)
    result = driver.run(max_events=p.max_events)
    out: Dict[str, float] = {
        "steps_per_second": result.steps_per_second,
        "total_time_us": result.total_time_us,
    }
    out.update({k: float(v) for k, v in result.census.items()})
    return out
