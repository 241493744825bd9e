"""Application benchmarks built on the simulated HPX runtime.

Each application package is imported on first access (PEP 562); most of
them need numpy, which a message-rate or latency run never loads.
"""

import importlib

__all__ = ["octotiger", "serve", "fft"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
