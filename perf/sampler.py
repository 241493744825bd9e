"""Layer map of ``src/repro`` and a SIGPROF stack sampler that charges
host CPU time to it.

Most layer entry points in the simulator are generators resumed by the
event kernel, so wrapping them in timers would only time generator
creation.  The sampler instead interrupts the process every
:data:`INTERVAL_S` of CPU time and charges the sample to the innermost frame
whose code lives under ``src/repro/``.  Time spent in the standard
library, builtins or numpy therefore goes to the repro code that called
it, and samples taken while no repro frame is on the stack (the
benchmark's own bookkeeping) are counted as unattributed.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Tuple

#: layer -> top-level names under ``src/repro`` (a sub-package, a module
#: file without ``.py``, or ``__init__`` for the package itself).  Every
#: module must map to exactly one layer; ``test_perf.py`` enforces it, so
#: a new module cannot silently fall into ``other``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim",),
    "netsim": ("netsim",),
    "mpi_sim": ("mpi_sim",),
    "lci_sim": ("lci_sim",),
    "parcelport": ("parcelport",),
    "hpx_rt": ("hpx_rt",),
    "apps": ("apps",),
    "obs": ("obs",),
    "adapt": ("adapt",),
    "faults": ("faults",),
    "flow": ("flow",),
    "bench": ("bench",),
    "other": ("__init__", "tcp_sim"),
}

#: modules (or sub-packages) whose self share is reported on their own
HOT_MODULES: Tuple[str, ...] = (
    "sim.core", "sim.stats", "sim.primitives", "sim.queues",
    "hpx_rt.scheduler", "hpx_rt.runtime", "hpx_rt.parcel_layer",
    "hpx_rt.parcel", "hpx_rt.serialization", "hpx_rt.task",
    "hpx_rt.future",
    "parcelport.base", "parcelport.lci_pp", "parcelport.mpi_pp",
    "parcelport.reliability", "parcelport.header",
    "mpi_sim.comm", "mpi_sim.matching",
    "lci_sim.device", "lci_sim.completion", "lci_sim.packet_pool",
    "netsim.nic", "netsim.fabric", "netsim.message",
    "apps.octotiger", "apps.serve",
)

#: CPU seconds between samples.  Profiling timers tick at the kernel's
#: scheduler rate, and 250 Hz is the common lowest rate, so 4 ms is the
#: same on every host; finer requests would not be honoured everywhere.
INTERVAL_S = 0.004

_LAYER_OF_TOP = {top: layer for layer, tops in LAYERS.items()
                 for top in tops}


def module_name(rel: str) -> str:
    """``sim/core.py`` -> ``sim.core``; ``sim/__init__.py`` -> ``sim``;
    the package's own ``__init__.py`` -> ``__init__``."""
    parts = rel[:-3].split("/")
    if parts[-1] == "__init__" and len(parts) > 1:
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> Optional[str]:
    """The declared layer of a module name, or None if undeclared."""
    return _LAYER_OF_TOP.get(module.split(".", 1)[0])


class StackSampler:
    """Context manager: SIGPROF sampling of the main thread.

    ``counts`` maps module name to samples.  Enter and exit it around
    the code to profile; counts accumulate across entries.  Turn them
    into shares with :func:`layer_shares` and :func:`module_shares`.
    """

    def __init__(self, pkg_root: Path):
        self._prefix = str(pkg_root.resolve()) + os.sep
        self.counts: Counter = Counter()
        self.unattributed = 0
        self._module_of: Dict[str, Optional[str]] = {}
        self._old_handler = None

    def _module(self, filename: str) -> Optional[str]:
        try:
            return self._module_of[filename]
        except KeyError:
            mod = None
            if filename.startswith(self._prefix):
                mod = module_name(filename[len(self._prefix):]
                                  .replace(os.sep, "/"))
            self._module_of[filename] = mod
            return mod

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            mod = self._module(frame.f_code.co_filename)
            if mod is not None:
                self.counts[mod] += 1
                return
            frame = frame.f_back
        self.unattributed += 1

    def __enter__(self) -> "StackSampler":
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler)


def layer_shares(counts: Dict[str, int]) -> Dict[str, float]:
    """Self share of every declared layer from per-module sample counts
    (the shares sum to 1 when anything was sampled)."""
    total = sum(counts.values()) or 1
    out = dict.fromkeys(LAYERS, 0.0)
    for mod, n in counts.items():
        out[layer_of(mod) or "other"] += n / total
    return out


def module_shares(counts: Dict[str, int]) -> Dict[str, float]:
    """Self share of each :data:`HOT_MODULES` entry (its sub-modules
    included) from per-module sample counts."""
    total = sum(counts.values()) or 1
    return {hot: sum(n for mod, n in counts.items()
                     if mod == hot or mod.startswith(hot + "."))
            / total for hot in HOT_MODULES}
