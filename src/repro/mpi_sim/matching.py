"""Indexed tag matching for the simulated MPI library.

The seed implementation kept posted receives in a plain list and unexpected
messages in a deque, scanning both linearly per :meth:`MpiComm._match_posted`
/ :meth:`MpiComm._match_unexpected` call — faithful to what UCX *charges*
for matching, but O(n) of real interpreter work per probe.  These queues
replace the scans with dict-of-deques buckets keyed ``(src, tag)`` while
reproducing the seed's observable behaviour *exactly*:

* the same entry is matched (first match in insertion order, wildcards
  included), and
* the same deterministic ``scanned`` count is returned — the number the
  progress engine multiplies by ``match_scan_us``/``unexpected_scan_us`` to
  charge simulated CPU time.  A match at live position ``i`` (0-based)
  scans ``i + 1`` entries; a miss scans all live entries.

The position of an entry among the *live* entries is recovered from its
insertion sequence number with one :func:`bisect.bisect_left` over the
sorted live-sequence list (append-only at the tail, C-speed deletes), so a
probe is O(log n + buckets) instead of O(n).

The frozen linear-scan reference lives in :mod:`repro.mpi_sim._seed_match`,
which only the tests import: ``tests/test_matching_property.py`` drives
both in lockstep over randomized workloads (wildcards, cancels,
duplicate/faulted arrivals) and asserts identical ``(match, scanned)``
pairs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..netsim.message import NetMsg
from .request import ANY_SOURCE, ANY_TAG, Request

__all__ = ["PostedQueue", "UnexpectedQueue"]


class PostedQueue:
    """Posted-receive list with O(log n) matching.

    Behaves like the seed's plain ``List[Request]`` for the operations the
    library (and the test suite) uses — ``append``, ``remove``, ``len``,
    ``in``, iteration in insertion order — but matches through per-key
    buckets.  Only ``kind == "recv"`` entries are matchable (exactly what
    :meth:`Request.matches` enforces); everything else still occupies a
    position and is counted by ``scanned``.
    """

    __slots__ = ("_buckets", "_seqs", "_seq_of", "_next_seq")

    def __init__(self) -> None:
        #: (peer, tag) -> deque of (seq, request), both possibly wildcards
        self._buckets: Dict[Tuple[int, int], deque] = {}
        #: sorted live insertion sequence numbers (all entries)
        self._seqs: List[int] = []
        #: request -> its insertion sequence number
        self._seq_of: Dict[Request, int] = {}
        self._next_seq = 0

    def append(self, req: Request) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seqs.append(seq)
        self._seq_of[req] = seq
        if req.kind == "recv":
            key = (req.peer, req.tag)
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = bucket = deque()
            bucket.append((seq, req))

    def match_pop(self, src: int, tag: int
                  ) -> Tuple[Optional[Request], int]:
        """First posted receive matching ``(src, tag)``, and the scanned
        count the seed's linear scan would have reported."""
        buckets = self._buckets
        best_seq = -1
        best_key = None
        for key in ((src, tag), (src, ANY_TAG),
                    (ANY_SOURCE, tag), (ANY_SOURCE, ANY_TAG)):
            bucket = buckets.get(key)
            if bucket:
                seq = bucket[0][0]
                if best_key is None or seq < best_seq:
                    best_seq = seq
                    best_key = key
        if best_key is None:
            return None, len(self._seqs)
        bucket = buckets[best_key]
        _seq, req = bucket.popleft()
        if not bucket:
            del buckets[best_key]
        seqs = self._seqs
        i = bisect_left(seqs, best_seq)
        del seqs[i]
        del self._seq_of[req]
        return req, i + 1

    def remove(self, req: Request) -> None:
        """Remove by identity (cancel path); ValueError when absent,
        matching ``list.remove``."""
        seq = self._seq_of.pop(req, None)
        if seq is None:
            raise ValueError("request not in posted queue")
        if req.kind == "recv":
            key = (req.peer, req.tag)
            bucket = self._buckets[key]
            bucket.remove((seq, req))
            if not bucket:
                del self._buckets[key]
        seqs = self._seqs
        del seqs[bisect_left(seqs, seq)]

    # -- sequence protocol (introspection / tests) -----------------------
    def __len__(self) -> int:
        return len(self._seqs)

    def __contains__(self, req: object) -> bool:
        return req in self._seq_of

    def __iter__(self) -> Iterator[Request]:
        """Insertion order, like the seed list (debug/introspection path)."""
        return (req for _seq, req in
                sorted((s, r) for r, s in self._seq_of.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PostedQueue n={len(self._seqs)}>"


class UnexpectedQueue:
    """Unexpected-message store with O(log n) matching.

    Arrivals carry concrete ``(src, tag)`` so buckets are keyed exactly;
    probes come from ``irecv`` and may use wildcards, in which case the
    matching bucket heads are compared by insertion sequence (the number
    of live keys is bounded by peers × in-flight tags, far below the
    entry count the seed deque scanned).  Faulted paths may append the
    same message object more than once (duplicate delivery); every
    append is an independent entry, as in the seed deque.
    """

    __slots__ = ("_buckets", "_seqs", "_next_seq")

    def __init__(self) -> None:
        #: (src, tag) -> deque of (seq, msg), keys always concrete
        self._buckets: Dict[Tuple[int, Any], deque] = {}
        self._seqs: List[int] = []
        self._next_seq = 0

    def append(self, msg: NetMsg) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seqs.append(seq)
        key = (msg.src, msg.tag)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
        bucket.append((seq, msg))

    def match_pop(self, src: int, tag: int) -> Tuple[Optional[NetMsg], int]:
        """Oldest buffered message matching ``(src, tag)`` (wildcards
        allowed), and the seed-identical scanned count."""
        buckets = self._buckets
        if src != ANY_SOURCE and tag != ANY_TAG:
            best_key = (src, tag)
            bucket = buckets.get(best_key)
            if not bucket:
                return None, len(self._seqs)
            best_seq = bucket[0][0]
        else:
            best_seq = -1
            best_key = None
            for key, bucket in buckets.items():
                if src != ANY_SOURCE and key[0] != src:
                    continue
                if tag != ANY_TAG and key[1] != tag:
                    continue
                seq = bucket[0][0]
                if best_key is None or seq < best_seq:
                    best_seq = seq
                    best_key = key
            if best_key is None:
                return None, len(self._seqs)
            bucket = buckets[best_key]
        _seq, msg = bucket.popleft()
        if not bucket:
            del buckets[best_key]
        seqs = self._seqs
        i = bisect_left(seqs, best_seq)
        del seqs[i]
        return msg, i + 1

    # -- sequence protocol (introspection / tests) -----------------------
    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[NetMsg]:
        """Insertion order, like the seed deque."""
        entries = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
        entries.sort(key=lambda e: e[0])
        return (msg for _seq, msg in entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UnexpectedQueue n={len(self._seqs)}>"
