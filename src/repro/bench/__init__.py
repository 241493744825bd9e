"""Benchmark harness: workloads + per-figure drivers (§4, §5).

Every name below is loaded from its submodule on first access (PEP 562),
so a message-rate or latency run imports its own driver and not the
figure, sweep, cache and validation machinery it never calls.
"""

import importlib

#: submodule -> the names this package re-exports from it
_SUBMODULES = {
    "fft_bench": ("FftBenchParams", "FftBenchResult", "run_fft"),
    "figures": ("FFT_CONFIGS", "FIGURES", "SERVE_CONFIGS", "FigureResult",
                "ablation_aggregation", "ablation_mpi_pp", "fft_smoke",
                "fft_sweep", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                "fig7", "fig8", "fig9", "fig10", "fig11", "find_knee",
                "platform_tables", "serve_smoke", "serve_sweep",
                "table_abbreviations"),
    "harness": ("Measurement", "Series", "fold"),
    "seeds": ("derive_seed", "repeat_seeds", "substream_seeds"),
    "serve_bench": ("ServeBenchParams", "ServeBenchResult", "run_serve"),
    "latency": ("LatencyParams", "LatencyResult", "run_latency"),
    "message_rate": ("MessageRateParams", "MessageRateResult",
                     "run_message_rate"),
    "octotiger_bench": ("OctoTigerBenchParams", "run_octotiger"),
    "parallel": ("ExecutionPolicy", "PointTask", "ResultCache",
                 "code_fingerprint", "evaluate_point", "execution",
                 "run_points", "set_policy"),
    "profiling": ("format_breakdown", "lock_report", "runtime_breakdown"),
    "sweep": ("SweepResult", "SweepSpec", "run_sweep"),
    "calibration": ("check_calibration", "format_calibration"),
    "validation": ("CheckResult", "checks_for", "validate"),
}
_HOME = {name: module for module, names in _SUBMODULES.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
