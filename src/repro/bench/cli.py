"""Command-line entry point: ``repro-fig <figure> [--full] [--repeats N]``.

Examples::

    repro-fig tables          # Tables 1-3
    repro-fig fig1            # quick Fig 1 regeneration
    repro-fig fig10 --full    # full Fig 10 sweep
    repro-fig all             # everything (long)
    repro-fig fig1 --jobs 4   # fan sweep points across 4 worker processes
    repro-fig fig1 --cache .repro-cache   # reuse cached sweep points
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..faults import FaultPlan
from .figures import FIGURES, platform_tables, table_abbreviations
from .validation import validate

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fig",
        description="Regenerate tables/figures from the LCI-parcelport "
                    "paper inside the simulator.")
    parser.add_argument("figure",
                        choices=sorted(FIGURES) + ["tables", "all", "tune"],
                        help="which figure to regenerate ('tune' runs the "
                             "config auto-tuner; see docs/TUNING.md)")
    parser.add_argument("--full", action="store_true",
                        help="run the full (paper-scale) sweep instead of "
                             "the quick one")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repetitions per data point (default: 1 quick,"
                             " 3 full)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan independent sweep points across N worker "
                             "processes (results are identical to "
                             "sequential; default 1)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed result cache directory "
                             "(default: $REPRO_CACHE_DIR if set; see "
                             "docs/PERFORMANCE.md)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even if --cache or "
                             "$REPRO_CACHE_DIR is set")
    parser.add_argument("--bench-out", metavar="DIR", default=None,
                        help="directory for the auto-tuner's BENCH_tune.json "
                             "(default: .; only applies to 'tune')")
    parser.add_argument("--tune-workload", metavar="NAME", default=None,
                        choices=["message_rate", "fft", "serve"],
                        help="workload the auto-tuner searches over "
                             "(default: serve; only applies to 'tune')")
    parser.add_argument("--no-plot", action="store_true",
                        help="suppress the ASCII chart")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="fault-plan DSL for the fault_smoke figure, "
                             "e.g. 'drop=0.05,corrupt=0.01' (see "
                             "docs/FAULTS.md)")
    parser.add_argument("--overload", metavar="SPEC", default=None,
                        help="overload scenario DSL for the overload_smoke "
                             "figure, e.g. 'squeeze=0:3000@0*1,slow=0:4000"
                             "@1*2' (see docs/FLOW_CONTROL.md)")
    parser.add_argument("--trace", metavar="SPEC", default=None,
                        help="trace spec for the trace_smoke figure: a "
                             "preset ('parcel', 'all') or comma-separated "
                             "categories (see docs/OBSERVABILITY.md)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the trace_smoke runs as a merged "
                             "Perfetto/Chrome trace_event JSON file")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry dump for each "
                             "trace_smoke run")
    parser.add_argument("--validate", action="store_true",
                        help="run the figure's EXPERIMENTS.md shape checks "
                             "and set a nonzero exit code on failure")
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    from .parallel import policy, set_policy
    set_policy(jobs=args.jobs, cache_dir=args.cache,
               no_cache=args.no_cache)

    if args.figure == "tune":
        from ..adapt.tuner import run_tune
        return run_tune(workload=args.tune_workload,
                        full=args.full, out_dir=args.bench_out or ".",
                        repeats=args.repeats)
    if args.tune_workload is not None:
        parser.error("--tune-workload only applies to tune")
    if args.bench_out is not None:
        parser.error("--bench-out only applies to tune")

    if args.faults is not None:
        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")

    if args.overload is not None:
        try:
            FaultPlan.parse(args.overload)
        except ValueError as exc:
            parser.error(f"--overload: {exc}")

    if args.trace is not None:
        from ..obs import parse_trace_spec
        try:
            parse_trace_spec(args.trace)
        except ValueError as exc:
            parser.error(f"--trace: {exc}")

    if args.figure == "tables":
        print(table_abbreviations())
        print()
        print(platform_tables())
        return 0

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    failures = 0
    for name in names:
        t0 = time.time()
        kwargs = {}
        if args.faults is not None:
            if name != "fault_smoke":
                parser.error("--faults only applies to fault_smoke")
            kwargs["spec"] = args.faults
        if args.overload is not None:
            if name != "overload_smoke":
                parser.error("--overload only applies to overload_smoke")
            kwargs["spec"] = args.overload
        if args.trace is not None or args.trace_out is not None \
                or args.metrics:
            if name != "trace_smoke":
                parser.error("--trace/--trace-out/--metrics only apply "
                             "to trace_smoke")
            if args.trace is not None:
                kwargs["spec"] = args.trace
            if args.trace_out is not None:
                kwargs["trace_out"] = args.trace_out
            if args.metrics:
                kwargs["show_metrics"] = True
        result = FIGURES[name](quick=not args.full, repeats=args.repeats,
                               **kwargs)
        print(result.render(plot=not args.no_plot))
        if args.validate:
            for check in validate(result):
                print(check.render())
                if not check.passed:
                    failures += 1
        print(f"[{name} done in {time.time() - t0:.1f}s wall]\n")
    cache = policy().cache
    if cache is not None:
        st = cache.stats()
        print(f"[cache {cache.root}: {st['hits']} hits, "
              f"{st['misses']} misses, {st['stores']} stores]",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
