"""Perfetto / Chrome ``trace_event`` exporter and text timeline renderer.

Converts a :class:`~repro.obs.spans.SpanRecorder` into the JSON object
format chrome://tracing and https://ui.perfetto.dev both open:

* each locality becomes a **process** (``pid``), each worker / progress
  thread a **thread** (``tid``), with ``M`` metadata events naming both;
* spans become paired ``B``/``E`` duration events, instants become
  ``i`` events;
* wire legs additionally emit ``s``/``f`` **flow arrows** from the source
  locality's ``net`` row to the destination's, so a message's hop across
  localities is drawn as an arc (keyed by the wire ``msg_id``).

Timestamps are virtual microseconds, which is exactly the unit the
``trace_event`` format expects — no scaling needed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .spans import Span, SpanRecorder

__all__ = ["to_chrome_events", "to_chrome_trace", "to_merged_chrome_trace",
           "write_chrome_trace", "validate_chrome_trace", "render_timeline"]

#: pid used for records with no locality (loc == -1: fabric-global events)
_GLOBAL_PID_OFFSET = 99


class _TidMap:
    """Stable (pid, thread-name) → integer tid mapping + metadata events."""

    def __init__(self) -> None:
        self._map: Dict[Tuple[int, str], int] = {}
        self._next: Dict[int, int] = {}
        self.meta: List[dict] = []

    def tid(self, pid: int, name: str) -> int:
        key = (pid, name or "?")
        tid = self._map.get(key)
        if tid is None:
            tid = self._next.get(pid, 0)
            self._next[pid] = tid + 1
            self._map[key] = tid
            self.meta.append({
                "ph": "M", "name": "thread_name", "ts": 0,
                "pid": pid, "tid": tid,
                "args": {"name": name or "?"}})
        return tid


def _pid_for(loc: int, pid_base: int) -> int:
    return pid_base + (loc if loc >= 0 else _GLOBAL_PID_OFFSET)


def to_chrome_events(recorder: SpanRecorder, pid_base: int = 0,
                     label: str = "") -> List[dict]:
    """The raw ``traceEvents`` list for one recorder.

    ``pid_base`` offsets every pid, and every flow-arrow id by
    ``pid_base << 32`` (wire ids restart at 0 in each run), so traces
    from several runs can be merged into one file without colliding;
    ``label`` prefixes the process names.
    """
    flow_base = pid_base << 32
    tids = _TidMap()
    events: List[dict] = []
    seen_pids: Dict[int, int] = {}
    now = recorder.sim.now
    for sp in recorder.spans:
        pid = _pid_for(sp.loc, pid_base)
        if pid not in seen_pids:
            seen_pids[pid] = sp.loc
        tid = tids.tid(pid, sp.tid)
        args = {k: v for k, v in sp.fields.items()
                if isinstance(v, (int, float, str, bool)) or v is None}
        name = f"{sp.cat}:{sp.name}"
        if sp.kind == "instant":
            events.append({"ph": "i", "name": name, "cat": sp.cat,
                           "ts": sp.t0, "pid": pid, "tid": tid, "s": "t",
                           "args": args})
            continue
        t1 = sp.t1 if sp.t1 is not None else now  # still-open span
        events.append({"ph": "B", "name": name, "cat": sp.cat,
                       "ts": sp.t0, "pid": pid, "tid": tid, "args": args})
        events.append({"ph": "E", "name": name, "cat": sp.cat,
                       "ts": t1, "pid": pid, "tid": tid})
        if sp.cat == "wire" and "dst" in sp.fields:
            # Flow arrow: source net row at injection → dest net row at
            # arrival, keyed by the wire-level msg_id.
            dst_pid = _pid_for(int(sp.fields["dst"]), pid_base)
            if dst_pid not in seen_pids:
                seen_pids[dst_pid] = int(sp.fields["dst"])
            flow_id = flow_base + int(sp.fields.get("msg_id", sp.sid))
            events.append({"ph": "s", "name": "net", "cat": "wire",
                           "id": flow_id, "ts": sp.t0, "pid": pid,
                           "tid": tid})
            events.append({"ph": "f", "bp": "e", "name": "net",
                           "cat": "wire", "id": flow_id, "ts": t1,
                           "pid": dst_pid,
                           "tid": tids.tid(dst_pid, "net")})
    for pid, loc in sorted(seen_pids.items()):
        pname = (f"L{loc}" if loc >= 0 else "fabric")
        if label:
            pname = f"{label}/{pname}"
        events.append({"ph": "M", "name": "process_name", "ts": 0,
                       "pid": pid, "tid": 0, "args": {"name": pname}})
    events.extend(tids.meta)
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"]))
    return events


def to_chrome_trace(recorder: SpanRecorder, pid_base: int = 0,
                    label: str = "") -> dict:
    """The full JSON-object-format document for one recorder."""
    return {
        "traceEvents": to_chrome_events(recorder, pid_base=pid_base,
                                        label=label),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "spec": str(recorder.spec),
            "spans": len(recorder),
            "dropped": recorder.dropped,
            "virtual_time_us": recorder.sim.now,
        },
    }


def to_merged_chrome_trace(runs: List[Tuple[SpanRecorder, str]]) -> dict:
    """Merge several labelled runs into one document.

    Each run's localities get a disjoint pid range (0, 100, 200, …) so,
    e.g., an MPI and an LCI run of the same workload can be compared
    side by side in one Perfetto window.
    """
    events: List[dict] = []
    runs_meta: List[dict] = []
    for i, (rec, label) in enumerate(runs):
        events.extend(to_chrome_events(rec, pid_base=100 * i, label=label))
        runs_meta.append({"label": label, "spec": str(rec.spec),
                          "spans": len(rec), "dropped": rec.dropped,
                          "virtual_time_us": rec.sim.now})
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "runs": runs_meta},
    }


def write_chrome_trace(recorder: SpanRecorder, path: str,
                       pid_base: int = 0, label: str = "") -> dict:
    """Export to ``path``; returns the written document."""
    doc = to_chrome_trace(recorder, pid_base=pid_base, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema check of a trace document; returns a list of problems
    (empty list == valid).

    Checks what chrome://tracing actually requires: a ``traceEvents``
    list, ``ph``/``ts``/``pid``/``tid`` on every event, numeric
    timestamps, balanced and properly nested ``B``/``E`` pairs per
    thread, and ``id`` on flow events.
    """
    errors: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a 'traceEvents' key"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    stacks: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event #{i} is not an object")
            continue
        for key in ("ph", "ts", "pid", "tid"):
            if key not in ev:
                errors.append(f"event #{i} missing required key {key!r}")
        ph = ev.get("ph")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event #{i} has non-numeric ts {ts!r}")
            continue
        row = (ev.get("pid"), ev.get("tid"))
        if ph in ("B", "E"):
            if ts < last_ts.get(row, float("-inf")):
                errors.append(f"event #{i} ts goes backwards on row {row}")
            last_ts[row] = ts
            stack = stacks.setdefault(row, [])
            if ph == "B":
                stack.append((ev.get("name", ""), ts))
            else:
                if not stack:
                    errors.append(f"event #{i}: E with no open B on "
                                  f"row {row}")
                else:
                    bname, bts = stack.pop()
                    if ev.get("name") not in (None, bname):
                        errors.append(
                            f"event #{i}: E name {ev.get('name')!r} does "
                            f"not match open B {bname!r} on row {row}")
        elif ph in ("s", "f", "t"):
            if "id" not in ev:
                errors.append(f"event #{i}: flow event missing 'id'")
    for row, stack in stacks.items():
        if stack:
            errors.append(f"row {row}: {len(stack)} unclosed B event(s): "
                          f"{[n for n, _ in stack[:3]]}")
    return errors


def render_timeline(recorder: SpanRecorder,
                    categories: Optional[List[str]] = None,
                    mid: Optional[int] = None,
                    limit: int = 200) -> str:
    """Human-readable chronological dump (the text analogue of the
    Perfetto view), optionally filtered to some categories or one
    message's lifecycle chain."""
    spans = [sp for sp in recorder.spans
             if (categories is None or sp.cat in categories)
             and (mid is None or sp.fields.get("mid") == mid)]
    spans.sort(key=lambda sp: (sp.t0, sp.sid))
    lines = []
    for sp in spans[:limit]:
        where = f"L{sp.loc}" if sp.loc >= 0 else "--"
        if sp.kind == "instant":
            span_part = "            ·"
        elif sp.t1 is None:
            span_part = "      (open)…"
        else:
            span_part = f"{sp.dur:12.3f}u"
        extra = " ".join(f"{k}={v}" for k, v in sp.fields.items())
        lines.append(f"[{sp.t0:12.3f}] {span_part} {where:<4}"
                     f"{sp.tid:<14} {sp.cat}:{sp.name}"
                     + (f"  {extra}" if extra else ""))
    if len(spans) > limit:
        lines.append(f"... ({len(spans) - limit} more)")
    return "\n".join(lines)
