"""Sharded conservative-parallel DES engine.

Partitions a runtime's localities across OS worker processes; each shard
runs the existing fast kernel (:mod:`repro.sim.core`) over its locality
subset and the shards synchronize with a conservative time-window
protocol whose lookahead is the fabric's wire latency.  See
docs/SHARDING.md for the protocol, the determinism contract, and the
derivation of the window width.

Public surface:

* :func:`run_sharded` / :func:`run_sharded_point` — evaluate a sweep
  point under ``N`` shards (the ``--shards N`` CLI knob routes here);
* :class:`ShardContext` / :func:`current_context` — the per-process
  shard state the runtime and fabric consult;
* :exc:`ShardStopped`, :exc:`LookaheadViolation`,
  :exc:`ShardingUnsupported` — the engine's failure vocabulary.

The runtime consults :mod:`~repro.sim.shard.context` on every build;
:mod:`~repro.sim.shard.runner` and its ``multiprocessing`` import load on
first access of ``run_sharded`` or ``run_sharded_point`` (PEP 562).
"""

import importlib

from .context import (LookaheadViolation, ShardContext, ShardStopped,
                      ShardingUnsupported, current_context, set_current)

__all__ = [
    "ShardContext", "ShardStopped", "LookaheadViolation",
    "ShardingUnsupported", "current_context", "set_current",
    "run_sharded", "run_sharded_point",
]


def __getattr__(name):
    if name not in ("run_sharded", "run_sharded_point"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.runner"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
