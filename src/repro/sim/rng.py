"""Deterministic named random-number streams.

Every stochastic decision in the simulation (fault draws, retry backoff
jitter, octree refinement, FFT inputs, serving arrivals and sizes) draws
from a stream derived from a single root seed plus a stable stream name,
so experiments are exactly repeatable and independent components do not
perturb each other's draws.

numpy is imported when the first stream is created: the message-rate and
latency workloads draw no random number, so they never load it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngPool"]


class RngPool:
    """Factory of independent, reproducible ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0xC0FFEE):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(seed)
            self._streams[name] = gen
        return gen
