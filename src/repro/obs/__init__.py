"""repro.obs — span-based observability for the simulated network stack.

Three layers:

* :mod:`repro.obs.spans` — the :class:`SpanRecorder` every component
  reports into (per-parcel lifecycle tracing, correlation by message id);
* :mod:`repro.obs.chrome_trace` — Perfetto/Chrome ``trace_event`` JSON
  export plus a text timeline renderer;
* :mod:`repro.obs.critical_path` — latency decomposition per message
  (serialize / backlog / post / wire / progress-lock wait / poll),
  reproducing the paper's Fig. 7 narrative mechanically;
* :mod:`repro.obs.metrics` — counters/gauges/histograms registry that
  absorbs ``fault_summary()`` / ``flow_summary()`` behind one namespace.

Recording is opt-in (``options=RunOptions(trace="parcel")``); a disabled
recorder leaves the simulation byte-identical to the seed, an enabled
one adds zero *simulated* time.  The runtime imports only
:mod:`~repro.obs.spans`; the exporters, the analysis and the metrics
registry load on first access (PEP 562).
"""

import importlib

from .spans import (CATEGORIES, TRACE_PRESETS, Span, SpanRecorder,
                    parse_trace_spec, payload_mid)

#: submodule -> the names this package re-exports from it lazily
_SUBMODULES = {
    "chrome_trace": ("render_timeline", "to_chrome_events",
                     "to_chrome_trace", "to_merged_chrome_trace",
                     "validate_chrome_trace", "write_chrome_trace"),
    "critical_path": ("Chain", "CriticalPathReport", "analyze",
                      "build_chains"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                "build_runtime_metrics"),
}
_HOME = {name: module for module, names in _SUBMODULES.items()
         for name in names}

__all__ = [
    "CATEGORIES", "TRACE_PRESETS", "Span", "SpanRecorder",
    "parse_trace_spec", "payload_mid", *_HOME,
]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
