"""FROZEN linear-scan matchers — the seed's MPI matching, verbatim.

Do not optimise or "fix" this module: it is the reference implementation
the indexed matchers in :mod:`repro.mpi_sim.matching` are verified
against.  ``SeedPostedQueue``/``SeedUnexpectedQueue`` wrap the exact
pre-index scan loops (a plain list of requests, a deque of messages)
behind the same queue API, so the property tests
(``tests/test_matching_property.py``) can drive both implementations in
lockstep and assert identical ``(match, scanned)`` pairs.  Nothing in the
runtime imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Tuple

from ..netsim.message import NetMsg
from .request import ANY_SOURCE, ANY_TAG, Request

__all__ = ["SeedPostedQueue", "SeedUnexpectedQueue"]


class SeedPostedQueue:
    """The seed's ``posted`` list + ``_match_posted`` linear scan."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items = []

    def append(self, req: Request) -> None:
        self._items.append(req)

    def match_pop(self, src: int, tag: int
                  ) -> Tuple[Optional[Request], int]:
        """Linear scan of posted receives; returns (match, elements
        scanned)."""
        items = self._items
        for i, req in enumerate(items):
            if req.matches(src, tag):
                items.pop(i)
                return req, i + 1
        return None, len(items)

    def remove(self, req: Request) -> None:
        self._items.remove(req)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, req: object) -> bool:
        return req in self._items

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items)


class SeedUnexpectedQueue:
    """The seed's ``unexpected`` deque + ``_match_unexpected`` scan
    (minus the byte accounting, which lives in the comm either way)."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items = deque()

    def append(self, msg: NetMsg) -> None:
        self._items.append(msg)

    def match_pop(self, src: int, tag: int) -> Tuple[Optional[NetMsg], int]:
        """Scan the unexpected queue for a (src, tag) match."""
        items = self._items
        for i, msg in enumerate(items):
            if src != ANY_SOURCE and msg.src != src:
                continue
            if tag != ANY_TAG and msg.tag != tag:
                continue
            del items[i]
            return msg, i + 1
        return None, len(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[NetMsg]:
        return iter(self._items)
