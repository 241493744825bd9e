"""Simulated HPX asynchronous many-task runtime (the paper's §2.2 stack).

:mod:`~repro.hpx_rt.collectives` loads on first access of ``Collectives``
or ``REDUCTIONS`` (PEP 562): only the FFT and BFS applications use it.
"""

import importlib

from .future import Future, Latch
from .parcel import HpxMessage, Parcel
from .parcel_layer import ParcelLayer
from .platform import (CostModel, EXPANSE, LAPTOP, PlatformSpec, ROSTAM,
                       platform_by_name)
from .runtime import HpxRuntime, Locality
from .scheduler import Scheduler, Worker
from .serialization import (deserialize_cost, serialize_cost,
                            serialize_parcels, split_args)
from .task import Task

__all__ = [
    "HpxRuntime", "Locality", "Worker", "Scheduler", "Task",
    "Future", "Latch", "Collectives", "REDUCTIONS",
    "Parcel", "HpxMessage", "ParcelLayer",
    "serialize_parcels", "serialize_cost", "deserialize_cost", "split_args",
    "CostModel", "PlatformSpec", "EXPANSE", "ROSTAM", "LAPTOP",
    "platform_by_name",
]


def __getattr__(name):
    if name not in ("Collectives", "REDUCTIONS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.collectives"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
