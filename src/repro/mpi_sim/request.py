"""MPI request objects (the completion mechanism MPI offers)."""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Request", "ANY_SOURCE", "ANY_TAG"]

#: wildcard source rank (MPI_ANY_SOURCE)
ANY_SOURCE = -1
#: wildcard tag (MPI_ANY_TAG)
ANY_TAG = -1


class Request:
    """Handle for a nonblocking operation; completion observed via ``test``.

    ``done`` is set by the library (at post time for buffered eager sends,
    from the progress engine for everything else).  ``value`` carries the
    matched payload for receives.

    ``error`` is set (to a :class:`~repro.faults.TransportError`) when the
    operation completed *unsuccessfully* — e.g. it matched a corrupted
    message under fault injection; ``done`` is still True so ``test``
    observes it.  ``cancelled`` marks a request withdrawn via
    :meth:`~repro.mpi_sim.comm.MpiComm.cancel`.
    """

    __slots__ = ("kind", "peer", "size", "tag", "done", "value", "ctx",
                 "posted_t", "complete_t", "error", "cancelled")

    def __init__(self, kind: str, peer: int, size: int, tag: int,
                 ctx: Any = None):
        self.kind = kind            # "send" | "recv"
        self.peer = peer            # destination (send) / source (recv)
        self.size = size
        self.tag = tag
        self.done = False
        self.value: Any = None
        self.ctx = ctx
        self.posted_t = 0.0
        self.complete_t = 0.0
        self.error: Optional[Exception] = None
        self.cancelled = False

    def matches(self, src: int, tag: int) -> bool:
        """Does this *posted receive* match an incoming (src, tag)?"""
        if self.kind != "recv":
            return False
        if self.peer != ANY_SOURCE and self.peer != src:
            return False
        if self.tag != ANY_TAG and self.tag != tag:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return (f"<Req {self.kind} peer={self.peer} "
                f"tag={self.tag} {self.size}B {state}>")
