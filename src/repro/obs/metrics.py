"""Metrics registry: counters, gauges and histograms behind one namespace.

The runtime's ad-hoc reporting (``fault_summary()``, ``flow_summary()``,
per-component :class:`~repro.sim.stats.StatSet` bags) grew organically;
this registry absorbs them behind a single queryable namespace with
dotted metric names (``fault.retransmits``, ``flow.L0.backlog_peak``,
``pp.header_sends``, ``obs.wire_us`` …).

Histograms reuse :func:`repro.sim.stats.percentile`, so p50/p90/p99 here
agree exactly with :class:`~repro.sim.stats.TimeSeries` percentiles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..sim.stats import percentile, summarize

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "build_runtime_metrics"]


class Counter:
    """Monotonic count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def as_dict(self) -> Dict[str, float]:
        return {self.name: self.value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value:g}>"


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def as_dict(self) -> Dict[str, float]:
        return {self.name: self.value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Sample distribution with percentile summaries."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, v: float) -> None:
        self.values.append(float(v))

    def observe_many(self, vs) -> None:
        self.values.extend(float(v) for v in vs)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return summarize(self.values)["mean"]

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def p50(self) -> float:
        return self.percentile(50.0)

    def p90(self) -> float:
        return self.percentile(90.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def p999(self) -> float:
        return self.percentile(99.9)

    def as_dict(self) -> Dict[str, float]:
        return {f"{self.name}.count": float(self.count),
                f"{self.name}.mean": self.mean,
                f"{self.name}.p50": self.p50(),
                f"{self.name}.p90": self.p90(),
                f"{self.name}.p99": self.p99(),
                f"{self.name}.max": self.max}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name} n={self.count} "
                f"p50={self.p50():.3g} p99={self.p99():.3g}>")


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Dotted-namespace registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name)
        elif not isinstance(m, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(m).__name__}, not {cls.__name__}")
        return m

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # -- querying ----------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def query(self, prefix: str = "") -> Dict[str, Metric]:
        """All metrics whose name starts with ``prefix``."""
        return {k: v for k, v in self._metrics.items()
                if k.startswith(prefix)}

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, float]:
        """Flattened name → value view (histograms expand to summaries)."""
        out: Dict[str, float] = {}
        for m in self._metrics.values():
            out.update(m.as_dict())
        return out

    def render(self, prefix: str = "") -> str:
        flat = {}
        for name, m in sorted(self.query(prefix).items()):
            flat.update(m.as_dict())
        width = max((len(k) for k in flat), default=0)
        return "\n".join(f"{k:<{width}}  {v:g}"
                         for k, v in sorted(flat.items()))

    def __len__(self) -> int:
        return len(self._metrics)


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)
    else:
        try:
            out[prefix] = float(value)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            pass


def build_runtime_metrics(rt: Any) -> MetricsRegistry:
    """One registry view over a finished :class:`~repro.hpx_rt.runtime.
    HpxRuntime`: fault counters, flow gauges, parcelport/layer/worker
    stats, plus latency histograms derived from the span recorder when
    tracing was on."""
    reg = MetricsRegistry()
    for k, v in rt.fault_summary().items():
        reg.counter(f"fault.{k}").inc(v)
    flat: Dict[str, float] = {}
    for k, v in rt.flow_summary().items():
        _flatten(f"flow.{k}", v, flat)
    for k, v in flat.items():
        reg.gauge(k).set(v)
    reg.gauge("sim.virtual_time_us").set(rt.now)
    reg.counter("wire.msgs").inc(rt.fabric.stats.counters.get("msgs", 0))
    reg.counter("wire.bytes").inc(rt.fabric.stats.accum.get("bytes", 0.0))
    for loc in rt.localities:
        pp = loc.parcelport
        if pp is not None:
            for k, v in pp.stats.counters.items():
                reg.counter(f"pp.{k}").inc(v)
        if loc.parcel_layer is not None:
            for k, v in loc.parcel_layer.stats.counters.items():
                reg.counter(f"layer.{k}").inc(v)
        for w in loc.workers:
            reg.counter("worker.cpu_us").inc(w.cpu_us)
            reg.counter("worker.compute_us").inc(
                w.stats.accum.get("compute_us", 0.0))
            reg.counter("worker.lock_wait_us").inc(
                w.stats.accum.get("lock_wait_us", 0.0))
    ad = getattr(rt, "adapt", None)
    if ad is not None:
        reg.counter("adapt.ticks").inc(ad.ticks)
        reg.counter("adapt.retunes").inc(sum(ad.retunes.values()))
        for knob, n in sorted(ad.retunes.items()):
            reg.counter(f"adapt.retune.{knob}").inc(n)
        st = ad.state
        reg.gauge("adapt.agg_hold_bytes").set(float(st.agg_hold_bytes))
        reg.gauge("adapt.progress_pinned").set(
            1.0 if st.progress_pinned else 0.0)
        shares = [dev.progress_wait_share()
                  for loc in rt.localities
                  for dev in getattr(loc.parcelport, "devices", ())]
        if shares:
            reg.gauge("adapt.progress_wait_share").set(max(shares))
    serve = getattr(rt, "serve_stats", None)
    if serve is not None:
        for k, v in serve.counters.items():
            reg.counter(f"serve.{k}").inc(v)
        lat = serve.series.get("latency_us")
        if lat is not None and len(lat):
            h = reg.histogram("serve.latency_us")
            h.observe_many(lat.values())
    obs = getattr(rt, "obs", None)
    if obs is not None:
        reg.counter("obs.spans").inc(len(obs))
        reg.counter("obs.dropped").inc(obs.dropped)
        wire = reg.histogram("obs.wire_us")
        for sp in obs.query(cat="wire"):
            if sp.kind == "span" and sp.t1 is not None:
                wire.observe(sp.dur)
        rx = reg.histogram("obs.rx_wait_us")
        for sp in obs.query(cat="progress", name="poll"):
            w = sp.fields.get("rx_wait")
            if w is not None:
                rx.observe(w)
    return reg
