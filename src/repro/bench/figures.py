"""Per-figure drivers: regenerate every table and figure of the paper.

Each ``figN()`` runs the corresponding experiment (scaled down by default —
pass ``quick=False`` for the fuller sweep), prints the paper-style series
and returns a :class:`FigureResult` whose series the benchmark suite
asserts shape targets against (see DESIGN.md §3).

Workload scaling vs the paper (documented per DESIGN.md): message totals
are 10–50× smaller than the paper's 500 K/100 K, repeat counts default to
3 (paper: ≥5), and Octo-Tiger trees are two levels shallower.  None of
these change who wins or where the crossovers sit; they keep a full figure
regeneration within minutes of wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..faults import FaultPlan
from ..hpx_rt.platform import EXPANSE, ROSTAM, PlatformSpec
from ..hpx_rt.runtime import RunOptions
from ..parcelport import ALL_LCI_VARIANTS, TABLE1
from .fft_bench import FftBenchParams
from .harness import Series, fold
from .latency import LatencyParams, run_latency
from .message_rate import MessageRateParams
from .octotiger_bench import OctoTigerBenchParams
from .parallel import PointTask, run_points
from .reporting import (ascii_plot, format_bar_chart, format_series_table,
                        format_table)
from .seeds import repeat_seeds
from .serve_bench import ServeBenchParams

__all__ = ["FigureResult", "FIGURES",
           "table_abbreviations", "platform_tables",
           "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
           "fig7", "fig8", "fig9", "fig10", "fig11",
           "ablation_mpi_pp", "ablation_aggregation", "fault_smoke",
           "overload_smoke", "trace_smoke", "fft_smoke", "fft_sweep",
           "serve_smoke", "serve_sweep", "find_knee",
           "OVERLOAD_CONFIGS", "OVERLOAD_SPEC",
           "FFT_CONFIGS", "FFT_FLOW",
           "SERVE_CONFIGS", "SERVE_FLOW", "SERVE_SLO_TARGET"]

#: the 11 configurations of Figs 3/6/7/8/9
ALL_CONFIGS = (["lci_psr_cq_pin"] + ALL_LCI_VARIANTS + ["mpi", "mpi_i"])

#: Fig 1/4 comparison set
MPI_VS_LCI = ["mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"]


@dataclass
class FigureResult:
    """Series + metadata for one regenerated figure."""

    figure: str
    title: str
    series: List[Series]
    x_name: str = "x"
    y_name: str = "y"
    meta: Dict[str, object] = field(default_factory=dict)

    def by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"{self.figure}: no series {label!r} "
                       f"(have {[s.label for s in self.series]})")

    def render(self, plot: bool = True) -> str:
        parts = [f"== {self.figure}: {self.title} =="]
        parts.append(format_series_table(self.series, x_name=self.x_name))
        if plot and any(s.xs for s in self.series) \
                and len({x for s in self.series for x in s.xs}) > 1:
            parts.append(ascii_plot(self.series, title=self.y_name))
        counters = self.meta.get("counters")
        if counters:
            for key in sorted(counters):
                body = "  ".join(f"{k}={v:g}" for k, v in
                                 sorted(counters[key].items())) or "(none)"
                parts.append(f"-- {key}: {body}")
        reports = self.meta.get("reports")
        if reports:
            for key in sorted(reports):
                parts.append(f"-- {key} --\n{reports[key]}")
        return "\n".join(parts)

    def show(self) -> None:
        print(self.render())


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
def table_abbreviations() -> str:
    """Table 1: configuration abbreviations."""
    rows = sorted(TABLE1.items())
    return format_table(rows, header=["Abbreviation", "Configuration"])


def platform_tables() -> str:
    """Tables 2 and 3: the two system configurations (as simulated)."""
    parts = []
    for plat, tid in ((EXPANSE, "Table 2 (SDSC Expanse)"),
                      (ROSTAM, "Table 3 (Rostam)")):
        rows = list(plat.table().items())
        parts.append(f"== {tid} ==\n" + format_table(rows))
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# sweep plumbing: fan independent points through repro.bench.parallel
# ---------------------------------------------------------------------------
def _seeds(repeats: int) -> List[int]:
    """The repetition seeds of every figure's points."""
    return repeat_seeds(repeats)


# ---------------------------------------------------------------------------
# message-rate figures (Figs 1-6)
# ---------------------------------------------------------------------------
def _rate_sweep(configs: Sequence[str], size: int, batch: int, total: int,
                rates_kps: Sequence[Optional[float]],
                platform: PlatformSpec, repeats: int) -> List[Series]:
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, MessageRateParams(
                 msg_size=size, batch=batch, total_msgs=total,
                 inject_rate_kps=rate, platform=platform), seed)
             for cfg in configs for rate in rates_kps for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    for cfg in configs:
        s = Series(label=cfg)
        for _rate in rates_kps:
            res = fold([next(results) for _ in seeds])
            s.add(res["achieved_injection_kps"].mean,
                  res["message_rate_kps"])
        series.append(s)
    return series


_RATES_8B_FULL = [100.0, 200.0, 400.0, 800.0, 1600.0, None]
_RATES_8B_QUICK = [100.0, 400.0, 1600.0, None]
_RATES_16K_FULL = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, None]
_RATES_16K_QUICK = [10.0, 40.0, 160.0, None]


def fig1(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 1: 8 B message rate vs injection rate — MPI vs LCI ± immediate."""
    repeats = repeats or (1 if quick else 3)
    total = total or (4000 if quick else 20000)
    rates = _RATES_8B_QUICK if quick else _RATES_8B_FULL
    series = _rate_sweep(MPI_VS_LCI, 8, 100, total, rates, EXPANSE, repeats)
    return FigureResult("fig1", "Achieved message rate (8B), MPI vs LCI",
                        series, x_name="inj_kps", y_name="rate K/s",
                        meta={"total": total, "repeats": repeats})


def fig2(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 2: 8 B message rate vs injection — the 8 LCI ``_i`` variants."""
    repeats = repeats or (1 if quick else 3)
    total = total or (4000 if quick else 20000)
    rates = _RATES_8B_QUICK if quick else _RATES_8B_FULL
    series = _rate_sweep(ALL_LCI_VARIANTS, 8, 100, total, rates, EXPANSE,
                         repeats)
    return FigureResult("fig2", "Achieved message rate (8B), LCI variants",
                        series, x_name="inj_kps", y_name="rate K/s",
                        meta={"total": total, "repeats": repeats})


def _peak_rates(configs: Sequence[str], size: int, batch: int, total: int,
                rates: Sequence[Optional[float]], repeats: int
                ) -> FigureResult:
    series = _rate_sweep(configs, size, batch, total, rates, EXPANSE,
                         repeats)
    peaks = Series(label="peak")
    for i, s in enumerate(series):
        peaks.xs.append(float(i))
        peaks.ys.append(s.peak)
        peaks.yerr.append(0.0)
    fig = "fig3" if size == 8 else "fig6"
    res = FigureResult(fig, f"Highest achieved message rate ({size}B)",
                       series, x_name="inj_kps", y_name="rate K/s",
                       meta={"labels": [s.label for s in series],
                             "peaks": peaks.ys})
    return res


def fig3(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 3: highest achieved 8 B message rate across all 11 configs."""
    repeats = repeats or (1 if quick else 3)
    total = total or (4000 if quick else 20000)
    rates = [400.0, None] if quick else _RATES_8B_FULL
    return _peak_rates(ALL_CONFIGS, 8, 100, total, rates, repeats)


def fig4(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 4: 16 KiB message rate vs injection — MPI vs LCI ± immediate."""
    repeats = repeats or (1 if quick else 3)
    total = total or (1000 if quick else 5000)
    rates = _RATES_16K_QUICK if quick else _RATES_16K_FULL
    series = _rate_sweep(MPI_VS_LCI, 16384, 10, total, rates, EXPANSE,
                         repeats)
    return FigureResult("fig4", "Achieved message rate (16KiB), MPI vs LCI",
                        series, x_name="inj_kps", y_name="rate K/s",
                        meta={"total": total, "repeats": repeats})


def fig5(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 5: 16 KiB message rate vs injection — LCI variants."""
    repeats = repeats or (1 if quick else 3)
    total = total or (1000 if quick else 5000)
    rates = _RATES_16K_QUICK if quick else _RATES_16K_FULL
    series = _rate_sweep(ALL_LCI_VARIANTS, 16384, 10, total, rates, EXPANSE,
                         repeats)
    return FigureResult("fig5", "Achieved message rate (16KiB), LCI variants",
                        series, x_name="inj_kps", y_name="rate K/s",
                        meta={"total": total, "repeats": repeats})


def fig6(quick: bool = True, repeats: Optional[int] = None,
         total: Optional[int] = None) -> FigureResult:
    """Fig 6: highest achieved 16 KiB message rate across all configs."""
    repeats = repeats or (1 if quick else 3)
    total = total or (1000 if quick else 5000)
    rates = [40.0, None] if quick else _RATES_16K_FULL
    return _peak_rates(ALL_CONFIGS, 16384, 10, total, rates, repeats)


# ---------------------------------------------------------------------------
# latency figures (Figs 7-9)
# ---------------------------------------------------------------------------
_SIZES_FULL = [8, 64, 512, 1024, 4096, 16384, 65536]
_SIZES_QUICK = [8, 512, 4096, 16384, 65536]


def fig7(quick: bool = True, repeats: Optional[int] = None,
         steps: Optional[int] = None) -> FigureResult:
    """Fig 7: single-message ping-pong latency vs message size."""
    repeats = repeats or (1 if quick else 3)
    steps = steps or (20 if quick else 50)
    sizes = _SIZES_QUICK if quick else _SIZES_FULL
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, LatencyParams(msg_size=size, window=1,
                                          steps=steps, platform=EXPANSE),
                       seed)
             for cfg in ALL_CONFIGS for size in sizes for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    for cfg in ALL_CONFIGS:
        s = Series(label=cfg)
        for size in sizes:
            res = fold([next(results) for _ in seeds])
            s.add(size, res["one_way_latency_us"])
        series.append(s)
    return FigureResult("fig7", "Latency vs message size", series,
                        x_name="bytes", y_name="latency us",
                        meta={"steps": steps, "repeats": repeats})


def _latency_window_sweep(fig: str, size: int, quick: bool,
                          repeats: Optional[int],
                          steps: Optional[int]) -> FigureResult:
    repeats = repeats or (1 if quick else 3)
    steps = steps or (15 if quick else 40)
    windows = [1, 4, 16, 64] if quick else [1, 2, 4, 8, 16, 32, 64]
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, LatencyParams(msg_size=size, window=w,
                                          steps=steps, platform=EXPANSE),
                       seed)
             for cfg in ALL_CONFIGS for w in windows for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    for cfg in ALL_CONFIGS:
        s = Series(label=cfg)
        for w in windows:
            res = fold([next(results) for _ in seeds])
            s.add(w, res["one_way_latency_us"])
        series.append(s)
    return FigureResult(fig, f"Latency vs window size ({size}B)", series,
                        x_name="window", y_name="latency us",
                        meta={"steps": steps, "repeats": repeats})


def fig8(quick: bool = True, repeats: Optional[int] = None,
         steps: Optional[int] = None) -> FigureResult:
    """Fig 8: 8 B latency vs window size (1-64)."""
    return _latency_window_sweep("fig8", 8, quick, repeats, steps)


def fig9(quick: bool = True, repeats: Optional[int] = None,
         steps: Optional[int] = None) -> FigureResult:
    """Fig 9: 16 KiB latency vs window size (1-64)."""
    return _latency_window_sweep("fig9", 16384, quick, repeats, steps)


# ---------------------------------------------------------------------------
# Octo-Tiger figures (Figs 10-11)
# ---------------------------------------------------------------------------
def _octotiger_scaling(fig: str, platform: PlatformSpec, paper_level: int,
                       node_counts: Sequence[int], repeats: int,
                       n_steps: int = 2) -> FigureResult:
    configs = ["mpi", "mpi_i", "lci"]  # lci == lci_psr_cq_rp_i (§5)
    resolved = {"lci": "lci_psr_cq_pin_i", "mpi": "mpi", "mpi_i": "mpi_i"}
    series = {c: Series(label=c) for c in configs}
    seeds = _seeds(repeats)
    tasks = [PointTask(resolved[c], OctoTigerBenchParams(
                 platform=platform, n_localities=nodes,
                 paper_level=paper_level, n_steps=n_steps), seed)
             for nodes in node_counts for c in configs for seed in seeds]
    results = iter(run_points(tasks))
    for nodes in node_counts:
        for c in configs:
            res = fold([next(results) for _ in seeds])
            series[c].add(nodes, res["steps_per_second"])
    out = list(series.values())
    # relative speedup series, as plotted on the right axis of Figs 10/11
    for base in ("mpi", "mpi_i"):
        ratio = Series(label=f"lci / {base}")
        for i, nodes in enumerate(node_counts):
            denom = series[base].ys[i]
            ratio.add(nodes, series["lci"].ys[i] / denom if denom else 0.0)
        out.append(ratio)
    return FigureResult(fig, f"Octo-Tiger on {platform.name} "
                             f"(level {paper_level}, strong scaling)",
                        out, x_name="nodes", y_name="steps/s",
                        meta={"paper_level": paper_level})


def fig10(quick: bool = True, repeats: Optional[int] = None,
          node_counts: Optional[Sequence[int]] = None) -> FigureResult:
    """Fig 10: Octo-Tiger steps/s on SDSC Expanse, 2-32 nodes."""
    repeats = repeats or (1 if quick else 3)
    nodes = node_counts or ([2, 8, 32] if quick else [2, 4, 8, 16, 32])
    return _octotiger_scaling("fig10", EXPANSE, 6, nodes, repeats,
                              n_steps=1 if quick else 5)


def fig11(quick: bool = True, repeats: Optional[int] = None,
          node_counts: Optional[Sequence[int]] = None) -> FigureResult:
    """Fig 11: Octo-Tiger steps/s on Rostam, 2-16 nodes."""
    repeats = repeats or (1 if quick else 3)
    nodes = node_counts or ([2, 8, 16] if quick else [2, 4, 8, 16])
    return _octotiger_scaling("fig11", ROSTAM, 5, nodes, repeats,
                              n_steps=1 if quick else 5)


# ---------------------------------------------------------------------------
# ablations called out in the text
# ---------------------------------------------------------------------------
def ablation_mpi_pp(quick: bool = True, repeats: Optional[int] = None
                    ) -> FigureResult:
    """§3.1: original vs improved MPI parcelport (~20 % application gain).

    The application-level difference needs communication-heavy runs to be
    visible, so this ablation measures both the Octo-Tiger ratio (at a
    comm-bound node count) and the sharper microbenchmark signal: the
    original's fixed 512 B headers and tag-release round trips cost wire
    bytes and messages on every parcel.
    """
    repeats = repeats or (1 if quick else 3)
    nodes = 8 if quick else 16
    seeds = _seeds(repeats)
    app_params = OctoTigerBenchParams(platform=EXPANSE, n_localities=nodes,
                                      paper_level=6,
                                      n_steps=1 if quick else 5)
    app_tasks = [PointTask(cfg, app_params, seed)
                 for cfg in ("mpi", "mpi_orig") for seed in seeds]
    # microbenchmark side: 8 B message rate, where every parcel is one
    # header message and the original pays the tag-release round trip and
    # the fixed 512 B wire header on each
    rate_params = MessageRateParams(msg_size=8, batch=100,
                                    total_msgs=2000 if quick else 10000,
                                    inject_rate_kps=None, platform=EXPANSE,
                                    max_events=20_000_000)
    rate_tasks = [PointTask(cfg, rate_params, seed)
                  for cfg in ("mpi", "mpi_orig") for seed in seeds]
    results = iter(run_points(app_tasks + rate_tasks))
    series = []
    app = {}
    for cfg in ("mpi", "mpi_orig"):
        s = Series(label=cfg)
        res = fold([next(results) for _ in seeds])
        s.add(nodes, res["steps_per_second"])
        app[cfg] = res["steps_per_second"].mean
        series.append(s)
    rate = {}
    for cfg in ("mpi", "mpi_orig"):
        res = fold([next(results) for _ in seeds])
        rate[cfg] = res["message_rate_kps"].mean
    ratio_app = app["mpi"] / app["mpi_orig"] if app["mpi_orig"] else 0.0
    ratio_rate = rate["mpi"] / rate["mpi_orig"] if rate["mpi_orig"] else 0.0
    return FigureResult("ablation_mpi_pp",
                        "Original vs improved MPI parcelport",
                        series, x_name="nodes", y_name="steps/s",
                        meta={"counters": {
                            "improved_over_original": {"app": ratio_app,
                                                       "rate": ratio_rate},
                            "rates_kps": rate}})


def ablation_aggregation(quick: bool = True, repeats: Optional[int] = None
                         ) -> FigureResult:
    """§4.1: aggregation's mixed results — psr vs sr, with/without ``_i``."""
    repeats = repeats or (1 if quick else 3)
    total = 4000 if quick else 20000
    configs = ["lci_psr_cq_pin", "lci_psr_cq_pin_i",
               "lci_sr_cq_pin", "lci_sr_cq_pin_i"]
    rates = [400.0, None] if quick else _RATES_8B_FULL
    series = _rate_sweep(configs, 8, 100, total, rates, EXPANSE, repeats)
    return FigureResult("ablation_aggregation",
                        "Aggregation vs send-immediate (8B message rate)",
                        series, x_name="inj_kps", y_name="rate K/s",
                        meta={"peaks": {s.label: s.peak for s in series}})


# ---------------------------------------------------------------------------
# fault-injection smoke (not a paper figure: exercises repro.faults)
# ---------------------------------------------------------------------------
def fault_smoke(quick: bool = True, repeats: Optional[int] = None,
                spec: Optional[str] = None) -> FigureResult:
    """Message rate under an injected fault plan, MPI vs LCI.

    Sweeps drop probability (or runs a user ``spec`` once per config) and
    reports the achieved rate plus retransmit/failure counters — the
    headline check that lossy runs terminate instead of hanging.
    """
    repeats = repeats or 1
    total = 1000 if quick else 5000
    configs = ["lci_psr_cq_pin_i", "mpi_i"]
    if spec is None:
        drops = [0.0, 0.02, 0.1]
        plans = [FaultPlan(drop_prob=d, corrupt_prob=d / 4) for d in drops]
    else:
        drops = [0.0]
        plans = [FaultPlan.parse(spec)]
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=total,
                               inject_rate_kps=None, platform=EXPANSE)
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, params, seed, RunOptions(fault_plan=plan))
             for cfg in configs for plan in plans for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    counters: Dict[str, Dict[str, float]] = {}
    for cfg in configs:
        s = Series(label=cfg)
        for x, plan in zip(drops, plans):
            res = fold([next(results) for _ in seeds])
            s.add(x, res["message_rate_kps"])
            if not plan.is_zero:
                counters[f"{cfg}@{plan.describe()}"] = {
                    k: m.mean for k, m in res.items()
                    if k.startswith("fault.") or k == "failed_msgs"}
        series.append(s)
    return FigureResult("fault_smoke",
                        "Message rate under fault injection (8B)",
                        series, x_name="drop_prob", y_name="rate K/s",
                        meta={"total": total, "counters": counters,
                              "spec": spec})


# ---------------------------------------------------------------------------
# overload smoke (not a paper figure: exercises repro.flow backpressure)
# ---------------------------------------------------------------------------
#: the five Table-1 configuration *families* the overload smoke covers:
#: LCI one-sided (psr), LCI two-sided (sr), improved MPI (± immediate)
#: and the original MPI parcelport
OVERLOAD_CONFIGS = ["lci_psr_cq_pin_i", "lci_sr_sy_mt", "mpi", "mpi_i",
                    "mpi_orig"]

#: default overload scenario: squeeze the sender's packet pool while the
#: receiver is slow — both ends of the stack under pressure at once
OVERLOAD_SPEC = "squeeze=0:3000@0*1,slow=0:4000@1*2"


def overload_smoke(quick: bool = True, repeats: Optional[int] = None,
                   spec: Optional[str] = None) -> FigureResult:
    """Message rate with flow control, unloaded vs overloaded (x=0 / x=1).

    Runs each of the five configuration families twice under a
    :class:`~repro.flow.FlowControlPolicy`: once fault-free and once under
    the overload ``spec`` (default: pool squeeze on the sender plus a slow
    receiver).  The headline checks: every run completes exactly-once with
    bounded backlogs, and the overloaded runs report nonzero pool-
    exhaustion / credit-stall counters (visible in ``meta["counters"]``).
    """
    from ..flow import FlowControlPolicy

    repeats = repeats or 1
    total = 600 if quick else 3000
    plan = FaultPlan.parse(spec if spec is not None else OVERLOAD_SPEC)
    flow = FlowControlPolicy(credit_window=4, max_backlog=64,
                             max_queued_parcels=256,
                             rendezvous_fallback_after=2)
    params = MessageRateParams(msg_size=8, batch=50, total_msgs=total,
                               inject_rate_kps=None, platform=EXPANSE)
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, params, seed,
                       RunOptions(fault_plan=active_plan, flow_policy=flow))
             for cfg in OVERLOAD_CONFIGS for active_plan in (None, plan)
             for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    counters: Dict[str, Dict[str, float]] = {}
    for cfg in OVERLOAD_CONFIGS:
        s = Series(label=cfg)
        for x, active_plan in ((0.0, None), (1.0, plan)):
            res = fold([next(results) for _ in seeds])
            s.add(x, res["message_rate_kps"])
            if active_plan is not None:
                counters[f"{cfg}@{plan.describe()}"] = {
                    k: m.mean for k, m in res.items()
                    if k.startswith("fault.") or k == "failed_msgs"}
        series.append(s)
    return FigureResult("overload_smoke",
                        "Message rate with flow control under overload (8B)",
                        series, x_name="overload", y_name="rate K/s",
                        meta={"total": total, "counters": counters,
                              "spec": plan.describe(),
                              "flow": {"credit_window": flow.credit_window,
                                       "max_backlog": flow.max_backlog}})


# ---------------------------------------------------------------------------
# tracing smoke (not a paper figure: exercises repro.obs)
# ---------------------------------------------------------------------------
def trace_smoke(quick: bool = True, repeats: Optional[int] = None,
                spec: Optional[str] = None, trace_out: Optional[str] = None,
                show_metrics: bool = False) -> FigureResult:
    """Traced windowed ping-pong, MPI vs LCI, with critical-path analysis.

    Runs the Fig. 8 workload (8 B, window 16) under ``--trace`` and
    decomposes every delivered message's latency into the paper's Fig. 7
    stages.  The headline check: the improved-MPI run is dominated by
    progress-lock wait while the LCI run is dominated by (lock-free)
    progress polling.  With ``trace_out``, both runs are merged into one
    Perfetto/Chrome ``trace_event`` JSON file (MPI pids 0+, LCI 100+).

    The run is deterministic per seed, so ``repeats`` is accepted for CLI
    uniformity but a single seed is measured.
    """
    import json as _json

    from ..obs import (analyze, parse_trace_spec, to_merged_chrome_trace,
                       validate_chrome_trace)

    spec = spec or "parcel"
    parse_trace_spec(spec)  # fail fast on a bad spec
    steps = 30 if quick else 60
    window = 16
    configs = ["mpi_i", "lci_psr_cq_pin_i"]
    series: List[Series] = []
    counters: Dict[str, Dict[str, float]] = {}
    reports: Dict[str, str] = {}
    dominant: Dict[str, str] = {}
    runs = []
    for cfg in configs:
        params = LatencyParams(msg_size=8, window=window, steps=steps)
        res = run_latency(cfg, params, options=RunOptions(trace=spec))
        rep = analyze(res.obs)
        s = Series(label=cfg)
        s.xs.append(float(window))
        s.ys.append(res.one_way_latency_us)
        s.yerr.append(0.0)
        series.append(s)
        shares = rep.shares()
        counters[cfg] = {
            "chains": float(rep.n_complete),
            "retx": float(rep.retransmits),
            "lock_wait_pct": 100 * shares["progress_lock_wait"],
            "poll_pct": 100 * shares["progress_poll"],
            "wire_pct": 100 * shares["wire"],
            "spans": float(len(res.obs)),
        }
        reports[cfg] = rep.render()
        dominant[cfg] = rep.dominant
        if show_metrics and res.metrics is not None:
            reports[f"{cfg} metrics"] = res.metrics.render()
        runs.append((res.obs, cfg))
    meta: Dict[str, object] = {"steps": steps, "window": window,
                               "spec": spec, "counters": counters,
                               "reports": reports, "dominant": dominant}
    if trace_out:
        doc = to_merged_chrome_trace(runs)
        errors = validate_chrome_trace(doc)
        with open(trace_out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh)
        meta["trace_out"] = trace_out
        meta["trace_events"] = len(doc["traceEvents"])
        meta["trace_errors"] = errors
    return FigureResult("trace_smoke",
                        "Traced latency with critical-path decomposition "
                        "(8B, window 16)",
                        series, x_name="window", y_name="latency us",
                        meta=meta)


# ---------------------------------------------------------------------------
# distributed-FFT incast figures (not paper figures: the collectives
# workload of docs/COLLECTIVES.md — all-to-all transpose fan-in)
# ---------------------------------------------------------------------------
#: the five Table-1 configuration *families* the FFT workload compares:
#: LCI one-sided (psr), LCI two-sided (sr), improved MPI (± immediate)
#: and the original MPI parcelport — the overload_smoke set
FFT_CONFIGS = ["lci_psr_cq_pin_i", "lci_sr_cq_pin_i", "mpi", "mpi_i",
               "mpi_orig"]

#: flow-control knobs for the incast runs: a 4-message credit window and
#: a shallow sender backlog, so the transpose fan-in visibly engages
#: credit stalls and deferred sends at the top of the size ladder
FFT_FLOW = {"credit_window": 4, "max_backlog": 8}


def _fft_breakdown(cfg: str, n: int, n_loc: int, seed: int
                   ) -> "tuple[Dict[str, float], str, str]":
    """Traced run of one FFT point: flow counters + critical-path shares.

    Returns ``(counters, report, dominant)`` where the counters show the
    incast story in one line — phase times, credit stalls / deferred
    sends, and the share of delivery latency spent in the flow backlog
    vs under the MPI progress lock vs in LCI polling.
    """
    from ..obs import analyze
    from .fft_bench import run_fft

    params = FftBenchParams(n1=n, n2=n, n_localities=n_loc, **FFT_FLOW)
    res = run_fft(cfg, params, seed=seed,
                  options=RunOptions(trace="parcel"))
    rep = analyze(res.obs)
    shares = rep.shares()
    counters = {
        "row_fft1_us": res.phase_times_us["row_fft1"],
        "transpose_us": res.phase_times_us["transpose"],
        "row_fft2_us": res.phase_times_us["row_fft2"],
        "credit_stalls": float(res.faults.get("credit_stalls", 0)),
        "backlogged_sends": float(res.faults.get("backlogged_sends", 0)),
        "puts_deferred": float(res.faults.get("puts_deferred", 0)),
        "backlog_pct": 100 * shares.get("backlog_wait", 0.0),
        "lock_wait_pct": 100 * shares.get("progress_lock_wait", 0.0),
        "poll_pct": 100 * shares.get("progress_poll", 0.0),
        "wire_pct": 100 * shares.get("wire", 0.0),
    }
    return counters, rep.render(), rep.dominant


def fft_smoke(quick: bool = True, repeats: Optional[int] = None
              ) -> FigureResult:
    """Distributed FFT, one small problem per config family, traced.

    The quick CI smoke for the collectives layer: runs a 16×16 (quick)
    or 32×32 (full) four-locality FFT under flow control on each of the
    five Table-1 config families and reports throughput, per-phase
    times, flow-control counters and the critical-path decomposition of
    the transpose incast.  Deterministic per seed, so ``repeats`` is
    accepted for CLI uniformity but a single seed is measured.
    """
    n = 16 if quick else 32
    n_loc = 4
    seed = _seeds(1)[0]
    series: List[Series] = []
    counters: Dict[str, Dict[str, float]] = {}
    reports: Dict[str, str] = {}
    dominant: Dict[str, str] = {}
    x = float(FftBenchParams(n1=n, n2=n,
                             n_localities=n_loc).transpose_msg_bytes)
    for cfg in FFT_CONFIGS:
        ctrs, report, dom = _fft_breakdown(cfg, n, n_loc, seed)
        total = (ctrs["row_fft1_us"] + ctrs["transpose_us"]
                 + ctrs["row_fft2_us"])
        s = Series(label=cfg)
        s.xs.append(x)
        s.ys.append((n * n) / total if total else 0.0)  # Mpoints/s
        s.yerr.append(0.0)
        series.append(s)
        counters[cfg] = ctrs
        reports[cfg] = report
        dominant[cfg] = dom
    return FigureResult("fft_smoke",
                        f"Distributed FFT {n}x{n} on {n_loc} localities "
                        f"(all-to-all incast, flow control on)",
                        series, x_name="msg_bytes", y_name="Mpoints/s",
                        meta={"n": n, "n_localities": n_loc,
                              "flow": dict(FFT_FLOW), "counters": counters,
                              "reports": reports, "dominant": dominant})


def fft_sweep(quick: bool = True, repeats: Optional[int] = None
              ) -> FigureResult:
    """Distributed FFT sweeping the incast regime, per config family.

    Sweeps the problem size (and with ``--full`` the locality count)
    so the transpose's per-peer fan-in walks from a handful of small
    messages into deep multi-fragment backlogs.  Every point runs under
    flow control; the top of the ladder must show the credit machinery
    engaging (``credit_stalls > 0`` — asserted by ``--validate`` and
    the collectives test battery).  The meta carries, for the **highest
    sweep point**, the flow counters of every config plus a traced
    critical-path breakdown (incast backlog vs progress-lock wait vs
    polling), mirroring the Fig. 7 narrative under fan-in pressure.
    """
    repeats = repeats or (1 if quick else 3)
    n_loc = 4 if quick else 8
    sizes = [16, 32, 64] if quick else [32, 64, 128]
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, FftBenchParams(n1=n, n2=n, n_localities=n_loc,
                                           platform=EXPANSE, **FFT_FLOW),
                       seed)
             for cfg in FFT_CONFIGS for n in sizes for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    top_counters: Dict[str, Dict[str, float]] = {}
    for cfg in FFT_CONFIGS:
        s = Series(label=cfg)
        for n in sizes:
            res = fold([next(results) for _ in seeds])
            x = float(FftBenchParams(
                n1=n, n2=n, n_localities=n_loc).transpose_msg_bytes)
            s.add(x, res["points_per_second"])
            if n == sizes[-1]:
                top_counters[cfg] = {
                    k.removeprefix("fault."): m.mean
                    for k, m in sorted(res.items())
                    if k.startswith("fault.") or k.endswith("_us")}
        series.append(s)
    # traced breakdown of the highest sweep point, per config
    reports: Dict[str, str] = {}
    dominant: Dict[str, str] = {}
    for cfg in FFT_CONFIGS:
        ctrs, report, dom = _fft_breakdown(cfg, sizes[-1], n_loc, seeds[0])
        for k in ("backlog_pct", "lock_wait_pct", "poll_pct", "wire_pct"):
            top_counters[cfg][k] = ctrs[k]
        reports[cfg] = report
        dominant[cfg] = dom
    return FigureResult("fft_sweep",
                        f"Distributed FFT size sweep on {n_loc} localities "
                        f"(all-to-all incast, flow control on)",
                        series, x_name="msg_bytes", y_name="points/s",
                        meta={"sizes": sizes, "n_localities": n_loc,
                              "repeats": repeats, "flow": dict(FFT_FLOW),
                              "counters": top_counters,
                              "reports": reports, "dominant": dominant})


# ---------------------------------------------------------------------------
# open-loop serving figures (not paper figures: the workload of
# docs/SERVING.md — offered-load sweeps with shedding as admission control)
# ---------------------------------------------------------------------------
#: the five Table-1 configuration *families* the serving workload sweeps:
#: LCI one-sided (psr), LCI two-sided (sr), improved MPI (± immediate)
#: and the original MPI parcelport — the FFT/overload comparison set
SERVE_CONFIGS = ["lci_psr_cq_pin_i", "lci_sr_cq_pin_i", "mpi", "mpi_i",
                 "mpi_orig"]

#: flow-control knobs for the serving runs: an 8-message credit window
#: with shallow shed-mode backlogs, so past saturation the stack rejects
#: excess requests (``ParcelShedError``) instead of queueing unboundedly
SERVE_FLOW = {"credit_window": 8, "max_backlog": 16,
              "max_queued_parcels": 64}

#: SLO-attainment threshold that defines the saturation knee
SERVE_SLO_TARGET = 0.9

#: offered-load ladders (K requests/s); chosen so every config family's
#: knee falls strictly inside the swept range (see docs/SERVING.md)
_SERVE_LOADS_QUICK = [25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0]
_SERVE_LOADS_FULL = [25.0, 50.0, 75.0, 100.0, 150.0, 200.0,
                     300.0, 400.0, 600.0]

#: the smoke's two operating points: comfortably below every knee, and
#: far enough past all of them that every family sheds
_SERVE_LIGHT_KPS = 50.0
_SERVE_HEAVY_KPS = 1600.0


def find_knee(loads: Sequence[float], attainments: Sequence[float],
              target: float = SERVE_SLO_TARGET) -> float:
    """The saturation knee: the largest offered load still meeting SLO.

    Returns the largest ``loads[i]`` with ``attainments[i] >= target``,
    or ``0.0`` when even the lightest point misses the target (the knee
    sits below the swept range).  A knee equal to ``loads[-1]`` means the
    sweep never saturated the config — both edge cases fail the
    knee-inside-sweep validation check.
    """
    knee = 0.0
    for load, att in zip(loads, attainments):
        if att >= target:
            knee = max(knee, load)
    return knee


def _serve_params(offered_kps: float, horizon_us: float
                  ) -> ServeBenchParams:
    return ServeBenchParams(offered_kps=offered_kps, horizon_us=horizon_us,
                            **SERVE_FLOW)


def _serve_counters(d: Dict[str, float]) -> Dict[str, float]:
    """The per-operating-point counter line of the serve figures."""
    keys = ("goodput_kps", "slo_attainment", "p50_us", "p99_us", "p999_us",
            "shed_requests", "shed_responses", "deadline_misses")
    out = {k: d[k] for k in keys}
    out["parcels_shed"] = d.get("fault.parcels_shed", 0.0)
    out["credit_stalls"] = d.get("fault.credit_stalls", 0.0)
    return out


def _serve_breakdown(cfg: str, offered_kps: float, horizon_us: float,
                     seed: int) -> "tuple[Dict[str, float], str, str]":
    """Traced run of one serving point: SLO counters + critical path.

    Returns ``(counters, report, dominant)``: goodput/attainment/tail
    percentiles, shed and deadline-miss totals, flow-control engagement,
    and the share of delivered-parcel latency spent in the shed-mode
    backlog vs under the MPI progress lock vs in LCI polling.
    """
    from ..obs import analyze
    from .serve_bench import run_serve

    res = run_serve(cfg, _serve_params(offered_kps, horizon_us), seed=seed,
                    options=RunOptions(trace="parcel"))
    rep = analyze(res.obs)
    shares = rep.shares()
    ctrs = _serve_counters(res.as_dict())
    ctrs.update({
        "backlog_pct": 100 * shares.get("backlog_wait", 0.0),
        "lock_wait_pct": 100 * shares.get("progress_lock_wait", 0.0),
        "poll_pct": 100 * shares.get("progress_poll", 0.0),
        "wire_pct": 100 * shares.get("wire", 0.0),
    })
    return ctrs, rep.render(), rep.dominant


def serve_smoke(quick: bool = True, repeats: Optional[int] = None
                ) -> FigureResult:
    """Open-loop serving at two operating points, below and past the knee.

    The quick CI smoke for the serving subsystem: each config family
    handles a light (100 K req/s) and a heavy (1600 K req/s) open-loop
    request stream under shed-mode flow control.  Light must meet the
    SLO outright; heavy must saturate — goodput collapses, the p99/p999
    tail inflects past the deadline, and shedding engages as admission
    control on every family.  The heavy point runs traced and reports
    the critical-path decomposition of delivered parcels.  Deterministic
    per seed, so ``repeats`` is accepted for CLI uniformity but a single
    seed is measured.
    """
    from .serve_bench import run_serve

    horizon = 2000.0 if quick else 4000.0
    seed = _seeds(1)[0]
    series: List[Series] = []
    counters: Dict[str, Dict[str, float]] = {}
    reports: Dict[str, str] = {}
    dominant: Dict[str, str] = {}
    for cfg in SERVE_CONFIGS:
        light = run_serve(cfg, _serve_params(_SERVE_LIGHT_KPS, horizon),
                          seed=seed).as_dict()
        heavy_ctrs, report, dom = _serve_breakdown(
            cfg, _SERVE_HEAVY_KPS, horizon, seed)
        s = Series(label=cfg)
        s.add(_SERVE_LIGHT_KPS, light["goodput_kps"])
        s.add(_SERVE_HEAVY_KPS, heavy_ctrs["goodput_kps"])
        series.append(s)
        counters[f"{cfg}@light"] = _serve_counters(light)
        counters[f"{cfg}@heavy"] = heavy_ctrs
        reports[cfg] = report
        dominant[cfg] = dom
    return FigureResult("serve_smoke",
                        "Open-loop serving below and past saturation "
                        "(shed-mode flow control)",
                        series, x_name="offered_kps", y_name="goodput K/s",
                        meta={"horizon_us": horizon,
                              "light_kps": _SERVE_LIGHT_KPS,
                              "heavy_kps": _SERVE_HEAVY_KPS,
                              "slo_target": SERVE_SLO_TARGET,
                              "flow": dict(SERVE_FLOW),
                              "counters": counters, "reports": reports,
                              "dominant": dominant})


def serve_sweep(quick: bool = True, repeats: Optional[int] = None
                ) -> FigureResult:
    """Offered-load sweep: locate each config family's saturation knee.

    Walks the offered-load ladder per config family and reports goodput
    (y), SLO attainment, and tail latency per point, then places each
    family's saturation knee (the largest load with attainment >=
    ``SERVE_SLO_TARGET``).  Past the knee the open-loop stream keeps
    arriving, so goodput falls off its peak while p99 inflects and the
    shed/deadline-miss counters engage — shedding as admission control.
    The meta carries the per-family knees (``meta["knees"]``), the full
    attainment/p99 curves, and the top-of-ladder counters the
    ``--validate`` checks assert against.
    """
    repeats = repeats or 1
    loads = _SERVE_LOADS_QUICK if quick else _SERVE_LOADS_FULL
    horizon = 2000.0 if quick else 4000.0
    seeds = _seeds(repeats)
    tasks = [PointTask(cfg, _serve_params(kps, horizon), seed)
             for cfg in SERVE_CONFIGS for kps in loads for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    attainment: Dict[str, List[float]] = {}
    p99: Dict[str, List[float]] = {}
    knees: Dict[str, float] = {}
    top_counters: Dict[str, Dict[str, float]] = {}
    for cfg in SERVE_CONFIGS:
        s = Series(label=cfg)
        att: List[float] = []
        tail: List[float] = []
        for kps in loads:
            res = fold([next(results) for _ in seeds])
            s.add(kps, res["goodput_kps"])
            att.append(res["slo_attainment"].mean)
            tail.append(res["p99_us"].mean)
            if kps == loads[-1]:
                top_counters[cfg] = _serve_counters(
                    {k: m.mean for k, m in res.items()})
        series.append(s)
        attainment[cfg] = att
        p99[cfg] = tail
        knees[cfg] = find_knee(loads, att)
    return FigureResult("serve_sweep",
                        "Open-loop serving: goodput vs offered load "
                        "(saturation knees per config family)",
                        series, x_name="offered_kps", y_name="goodput K/s",
                        meta={"loads": list(loads), "horizon_us": horizon,
                              "repeats": repeats,
                              "slo_target": SERVE_SLO_TARGET,
                              "flow": dict(SERVE_FLOW),
                              "knees": knees, "attainment": attainment,
                              "p99_us": p99, "counters": top_counters})


# ---------------------------------------------------------------------------
# adaptive-policy smoke (not a paper figure: exercises repro.adapt)
# ---------------------------------------------------------------------------
def adapt_smoke(quick: bool = True,
                repeats: Optional[int] = None) -> FigureResult:
    """Message rate with the adaptive controller on vs off (8 B).

    Runs the aggregated ``lci_psr_cq_pin`` config plain and with the
    tuned aggregation-hold adaptive spec (``docs/TUNING.md``), proving
    (a) the controller engages (tick/retune counters in the meta) and
    (b) adaptation helps rather than hurts at saturation.
    """
    from ..adapt import AdaptiveSpec
    repeats = repeats or 1
    total = 2000 if quick else 8000
    cfg = "lci_psr_cq_pin"
    spec = AdaptiveSpec(agg_hold_init=1024, agg_hold_max=16384)
    rates = [400.0, None]
    seeds = _seeds(repeats)
    variants = [(cfg, None), (f"{cfg}+adapt", spec)]
    tasks = [PointTask(cfg, MessageRateParams(
                 msg_size=8, batch=100, total_msgs=total,
                 inject_rate_kps=rate, platform=EXPANSE), seed,
                 RunOptions(adapt=adapt))
             for _label, adapt in variants for rate in rates
             for seed in seeds]
    results = iter(run_points(tasks))
    series = []
    counters: Dict[str, Dict[str, float]] = {}
    for label, adapt in variants:
        s = Series(label=label)
        for _rate in rates:
            res = fold([next(results) for _ in seeds])
            s.add(res["achieved_injection_kps"].mean,
                  res["message_rate_kps"])
        if adapt is not None:
            # The unlimited-rate point's controller counters.
            counters[label] = {k[len("adapt."):]: m.mean
                               for k, m in res.items()
                               if k.startswith("adapt.")}
        series.append(s)
    return FigureResult("adapt_smoke",
                        "Message rate with adaptive policies (8B)",
                        series, x_name="achieved K/s", y_name="rate K/s",
                        meta={"total": total, "repeats": repeats,
                              "adapt": spec.as_dict(),
                              "counters": counters})


#: registry for the CLI
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4, "fig5": fig5,
    "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig9": fig9,
    "fig10": fig10, "fig11": fig11,
    "ablation_mpi_pp": ablation_mpi_pp,
    "ablation_aggregation": ablation_aggregation,
    "fault_smoke": fault_smoke,
    "overload_smoke": overload_smoke,
    "trace_smoke": trace_smoke,
    "fft_smoke": fft_smoke,
    "fft_sweep": fft_sweep,
    "serve_smoke": serve_smoke,
    "serve_sweep": serve_sweep,
    "adapt_smoke": adapt_smoke,
}
