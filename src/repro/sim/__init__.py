"""Discrete-event simulation kernel (the lowest substrate of the repro).

Public surface:

* :class:`~repro.sim.core.Simulator`, :class:`~repro.sim.core.Event`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.Timeout`
* :class:`~repro.sim.primitives.SpinLock`,
  :class:`~repro.sim.primitives.TryLock`,
  :class:`~repro.sim.primitives.AtomicCell`,
  :class:`~repro.sim.primitives.SerialResource`
* :class:`~repro.sim.queues.FifoChannel`, :class:`~repro.sim.queues.MPSCQueue`
* :class:`~repro.sim.rng.RngPool`
* :class:`~repro.sim.stats.StatSet`
"""

from .core import Event, Process, SimulationError, Simulator, Timeout
from .primitives import (AtomicCell, ContentionMeter, SerialResource,
                         SpinLock, TryLock)
from .queues import FifoChannel, MPSCQueue
from .rng import RngPool
from .stats import StatSet, TimeSeries, summarize

__all__ = [
    "Simulator", "Event", "Process", "Timeout", "SimulationError",
    "SpinLock", "TryLock", "AtomicCell", "SerialResource", "ContentionMeter",
    "FifoChannel", "MPSCQueue",
    "RngPool", "StatSet", "TimeSeries", "summarize",
]
