"""Span/event recorder: the observability substrate of :mod:`repro.obs`.

A :class:`SpanRecorder` collects **spans** (begin/end intervals of virtual
time) and **instants** (zero-duration events) from every layer of the
stack.  Each record carries:

* a **category** (``parcel``, ``msg``, ``chunk``, ``wire``, ``progress``,
  ``lock``, ``flow``) used for filtering,
* a **locality** id and a **thread** id (worker name, ``"net"`` for wire
  legs, progress-thread names),
* free-form **correlation fields** — most importantly ``mid``, the
  :class:`~repro.hpx_rt.parcel.HpxMessage` id that links every record of
  one message's lifecycle into a causal chain
  (submit → serialize → backlog wait → header/chunks → wire → progress
  poll → delivery → ack).

Recording is pure bookkeeping: no call here ever yields to the simulator
or charges CPU, so an *enabled* recorder adds zero **simulated** time,
and a disabled one (``runtime.obs is None``) leaves every hot path
byte-identical to the seed — the same contract as an unset flow policy.

The trace-spec grammar (the CLI's ``--trace=SPEC``) is a comma-separated
token list: raw category names, the preset ``parcel`` (the full message
lifecycle: everything except raw lock traffic), or ``all``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..sim.core import Simulator

__all__ = ["Span", "SpanRecorder", "parse_trace_spec", "payload_mid",
           "CATEGORIES", "TRACE_PRESETS"]

#: every category any instrumentation site emits under
CATEGORIES: FrozenSet[str] = frozenset(
    {"parcel", "msg", "chunk", "wire", "progress", "lock", "flow"})

#: spec presets; ``None`` means "everything" (no filtering at all)
TRACE_PRESETS: Dict[str, Optional[FrozenSet[str]]] = {
    "parcel": frozenset({"parcel", "msg", "chunk", "wire", "progress",
                         "flow"}),
    "lifecycle": frozenset({"parcel", "msg", "chunk", "wire", "progress",
                            "flow"}),
    "all": None,
}


def parse_trace_spec(spec: "str | Iterable[str] | bool | None"
                     ) -> Optional[FrozenSet[str]]:
    """Parse a ``--trace`` spec into a category set (None = everything).

    Accepts ``True``/``None`` (everything), a comma-separated string of
    presets and/or raw category names, or an iterable of category names.
    Unknown tokens raise ``ValueError``.
    """
    if spec is None or spec is True:
        return None
    if not isinstance(spec, str):
        cats = frozenset(spec)
        bad = cats - CATEGORIES
        if bad:
            raise ValueError(f"unknown trace categories {sorted(bad)}; "
                             f"known: {sorted(CATEGORIES)}")
        return cats
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty trace spec (use 'parcel' or 'all')")
    out: set = set()
    for tok in tokens:
        if tok in TRACE_PRESETS:
            preset = TRACE_PRESETS[tok]
            if preset is None:
                return None
            out |= preset
        elif tok in CATEGORIES:
            out.add(tok)
        else:
            raise ValueError(
                f"unknown trace token {tok!r}; known presets "
                f"{sorted(TRACE_PRESETS)} and categories "
                f"{sorted(CATEGORIES)}")
    return frozenset(out)


class Span:
    """One recorded interval (or instant) of virtual time."""

    __slots__ = ("sid", "cat", "name", "loc", "tid", "t0", "t1", "kind",
                 "fields")

    def __init__(self, sid: int, cat: str, name: str, loc: int, tid: str,
                 t0: float, t1: Optional[float], kind: str,
                 fields: Dict[str, Any]):
        self.sid = sid
        self.cat = cat
        self.name = name
        self.loc = loc
        self.tid = tid
        self.t0 = t0
        self.t1 = t1          #: None while the span is still open
        self.kind = kind      #: "span" | "instant"
        self.fields = fields

    @property
    def dur(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.t1:.3f}" if self.t1 is not None else "…"
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (f"<Span#{self.sid} {self.cat}/{self.name} "
                f"L{self.loc}:{self.tid} [{self.t0:.3f},{end}]us {extra}>")


def payload_mid(kind: str, payload: Any) -> Tuple[Optional[int], str]:
    """Decode a :class:`~repro.netsim.message.NetMsg` payload into
    ``(mid, part)`` where ``part`` classifies the wire leg.

    Understands every payload shape the two simulated libraries put on
    the wire; returns ``(None, ...)`` for control traffic that carries no
    HPX-message correlation (CTS, tag releases, acks).
    """
    inner = payload
    if kind in ("lci_medium", "lci_put"):
        # (payload, ctx) / (payload, ctx, size)
        inner = payload[0] if isinstance(payload, tuple) else payload
    elif kind == "lci_rts":
        # an LciOp whose .payload is the library-level payload
        inner = getattr(payload, "payload", None)
    elif kind in ("lci_cts", "lci_data"):
        # (sop, rop): the send op carries the original payload
        sop = payload[0] if isinstance(payload, tuple) else None
        inner = getattr(sop, "payload", None)
        part = "ctl" if kind == "lci_cts" else "data"
        mid, _ = _inner_mid(inner)
        return mid, part
    elif kind == "mpi_rts":
        # (req, size, payload)
        inner = payload[2] if isinstance(payload, tuple) else None
    elif kind == "mpi_cts":
        # (sreq, rreq): the send request's value is the original payload
        sreq = payload[0] if isinstance(payload, tuple) else None
        mid, _ = _inner_mid(getattr(sreq, "value", None))
        return mid, "ctl"
    elif kind == "mpi_data":
        # (payload_or_None, rreq, last)
        inner = payload[0] if isinstance(payload, tuple) else None
        mid, _ = _inner_mid(inner)
        return mid, "data"
    return _inner_mid(inner)


def _inner_mid(inner: Any) -> Tuple[Optional[int], str]:
    """Classify a library-level payload tuple (the parcelports' shapes)."""
    if isinstance(inner, tuple) and inner:
        tag = inner[0]
        if tag == "hdr":
            msg = inner[1]
            return getattr(msg, "mid", None), "hdr"
        if tag == "chunk":
            mid = inner[2] if len(inner) > 2 else None
            return mid, "chunk"
        if tag == "ack":
            return None, "ack"
        if tag == "tag_release":
            return None, "ctl"
    return None, "ctl"


class SpanRecorder:
    """Bounded in-memory span store with category filtering.

    All methods are safe to call from any simulation context (they never
    yield); they return quickly when the category is filtered out.  At
    ``capacity`` further records are counted in :attr:`dropped` instead
    of stored, so a runaway trace degrades instead of exhausting memory.
    """

    def __init__(self, sim: Simulator,
                 spec: "str | Iterable[str] | bool | None" = "all",
                 capacity: int = 1_000_000):
        self.sim = sim
        self.spec = spec
        self.categories = parse_trace_spec(spec)
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._sid = itertools.count()

    # -- recording ---------------------------------------------------------
    def wants(self, cat: str) -> bool:
        return self.categories is None or cat in self.categories

    def begin(self, cat: str, name: str, loc: int = -1, tid: str = "",
              **fields: Any) -> Optional[Span]:
        """Open a span at the current virtual time; returns None if the
        category is filtered (pass the result to :meth:`end` either way)."""
        if not self.wants(cat):
            return None
        sp = Span(next(self._sid), cat, name, loc, tid, self.sim.now, None,
                  "span", fields)
        self._store(sp)
        return sp

    def end(self, span: Optional[Span], **fields: Any) -> None:
        """Close a span opened by :meth:`begin` (None-safe)."""
        if span is None:
            return
        span.t1 = self.sim.now
        if fields:
            span.fields.update(fields)

    def instant(self, cat: str, name: str, loc: int = -1, tid: str = "",
                **fields: Any) -> None:
        """Record a zero-duration event."""
        if not self.wants(cat):
            return
        t = self.sim.now
        self._store(Span(next(self._sid), cat, name, loc, tid, t, t,
                         "instant", fields))

    def complete(self, cat: str, name: str, t0: float, t1: float,
                 loc: int = -1, tid: str = "", **fields: Any) -> None:
        """Record an already-finished span (both endpoints known)."""
        if not self.wants(cat):
            return
        self._store(Span(next(self._sid), cat, name, loc, tid, t0, t1,
                         "span", fields))

    def _store(self, span: Span) -> None:
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- record the wire directly off a NetMsg -----------------------------
    def wire_arrival(self, msg: Any, dst_node: int) -> None:
        """One wire leg completed (called by the NIC at delivery time)."""
        if not self.wants("wire"):
            return
        mid, part = payload_mid(msg.kind, msg.payload)
        self.complete("wire", msg.kind, msg.inject_t, self.sim.now,
                      loc=msg.src, tid="net", msg_id=msg.msg_id, mid=mid,
                      part=part, src=msg.src, dst=dst_node, size=msg.size,
                      corrupted=msg.corrupted)

    def wire_fault(self, msg: Any, verdict: str) -> None:
        """A fault verdict on a wire leg (drop / corrupt)."""
        if not self.wants("wire"):
            return
        mid, part = payload_mid(msg.kind, msg.payload)
        self.instant("wire", verdict, loc=msg.src, tid="net",
                     msg_id=msg.msg_id, mid=mid, part=part, dst=msg.dst,
                     size=msg.size)

    # -- querying ----------------------------------------------------------
    def query(self, cat: Optional[str] = None, name: Optional[str] = None,
              **field_eq: Any) -> List[Span]:
        """All spans matching category/name and field equality filters."""
        out = []
        for sp in self.spans:
            if cat is not None and sp.cat != cat:
                continue
            if name is not None and sp.name != name:
                continue
            if field_eq and any(sp.fields.get(k) != v
                                for k, v in field_eq.items()):
                continue
            out.append(sp)
        return out

    def by_mid(self) -> Dict[int, List[Span]]:
        """Index every mid-correlated span by its HPX-message id."""
        out: Dict[int, List[Span]] = {}
        for sp in self.spans:
            mid = sp.fields.get("mid")
            if mid is not None:
                out.setdefault(mid, []).append(sp)
        return out

    def __len__(self) -> int:
        return len(self.spans)
