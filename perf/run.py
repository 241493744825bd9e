#!/usr/bin/env python3
"""Layer-attributed benchmark of the repro simulator.

Run from anywhere; paths resolve against the repository this file is in::

    python perf/run.py                    # all workloads, 5 reps, seed 7
    python perf/run.py --trace            # plus a traced twin of every run
    python perf/run.py --smoke            # reduced sizes, checks BENCHMARK.json
    python perf/run.py --record-golden    # rewrite perf/golden.json
    python perf/run.py --workload msgrate_8b --seed 3 --seconds 20 --trace 0

Each workload runs in two child processes of its own, one after the
other, one point at a time; ``--reps`` or ``--seconds`` is split between
them.  A child runs the first point once untimed, then times passes over
the point list, and between points times the reference loop of
``calibrate.py``, by which every reported host time is scaled.  With
tracing, every timed run of a point is followed by a run of it under the
stack sampler; the sampler's overhead compares the medians of the two.
Traced times never enter the end-to-end metrics.
``setup_s`` is measured in five further fresh interpreters.  Every
metric is printed by name with its unit, the full report (raw samples,
quartiles, run manifest) is written as JSON, and the last line of
standard output is a one-line JSON summary.  The exit status is non-zero
when any point fails its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
GOLDEN = PERF / "golden.json"
GOLDEN_SEEDS = (7, 11)
SETUP_PROBES = 5
#: child processes per workload: a process keeps a speed offset of its
#: own (up to +-4 % on octotiger_l4 at equal host speed), which
#: averages out over processes
PROCESSES = 2
#: one host-speed reference loop per this much point time (~10 % extra)
REF_EVERY_S = 0.5
#: a single run must end within this many seconds when time-boxed
RUN_LIMIT_S = 170.0

#: units by exact name, then by suffix; every other metric is a count
_UNITS = {
    "events_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "frac",
    "netsim.wire_bytes": "B", "lci_sim.progress_yield": "msgs/call",
    "parcelport.poll_yield": "frac",
    "hpx_rt.parcels_per_message": "parcels/msg",
    "sim.wall_ns_per_event": "ns", "parcelport.wall_us_per_message": "us",
    "hpx_rt.wall_us_per_task": "us",
}
_SUFFIX_UNITS = (("_share", "frac"), ("_us", "us"), ("_s", "s"))


def unit_of(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(xs: List[float]) -> Dict[str, Any]:
    """Raw samples with their count and quartiles."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"n": len(xs), "q1": q[0], "median": statistics.median(xs),
            "q3": q[2], "samples": xs}


# ---------------------------------------------------------------------------
# child: one workload in its own process
# ---------------------------------------------------------------------------
def child(name: str, seed: int, reps: Optional[int],
          seconds: Optional[float], trace: bool, smoke: bool) -> Dict:
    """Raw measurements of one workload: per-point host times, reference
    loop times, digests, failures, and with ``trace`` the sampler counts,
    layer counters and traced host times."""
    import gc
    import resource

    from calibrate import reference_seconds
    from counters import TIMERS, RuntimeProbe, read_counters
    from sampler import StackSampler
    from workloads import WORKLOADS, digest

    points = WORKLOADS[name](smoke)
    golden = _load_golden().get(str(seed), {}).get(name, {})
    sampler = StackSampler(SRC / "repro")
    clock = time.perf_counter
    ref: List[float] = []
    wall = {mode: {p.id: [] for p in points} for mode in ("timed", "traced")}
    timers = {p.id: {t: [] for t in TIMERS} for p in points}
    seen: Dict[str, Dict[str, Any]] = {}
    #: point id -> raw counters of each runtime of its first traced run
    counters: Dict[str, List[Dict[str, float]]] = {}
    counter_errors: List[str] = []
    failures: List[Dict[str, str]] = []
    attempted = 0
    ref_owed = 1.0

    def execute(p, mode: str, probe: RuntimeProbe) -> None:
        nonlocal attempted, ref_owed
        attempted += 1
        gc.collect()
        while mode != "warmup" and ref_owed >= 1.0:
            ref.append(reference_seconds())
            ref_owed -= 1.0
        error = None
        t0 = clock()
        try:
            if mode == "traced":
                with sampler:
                    result = p.run(seed=seed)
            else:
                result = p.run(seed=seed)
        except Exception as exc:  # a failed point is reported, not fatal
            error = exc
        dt = clock() - t0
        ref_owed += dt / REF_EVERY_S
        runtimes, times = probe.take()
        if error is not None:
            failures.append({"point": p.id, "mode": mode,
                             "reason": f"{type(error).__name__}: {error}"})
            return
        events = sum(rt.sim.event_count for rt in runtimes)
        d = digest(result)
        first = seen.setdefault(p.id, {"digest": d, "events": events})
        reason = p.check(result)
        if reason is None and golden.get(p.id, d) != d:
            reason = f"digest {d[:12]} differs from golden"
        elif reason is None and first["digest"] != d:
            reason = f"digest {d[:12]} differs between reps"
        elif reason is None and first["events"] != events:
            reason = f"{events} events differ between reps"
        if reason is not None:
            failures.append({"point": p.id, "mode": mode, "reason": reason})
            return
        if mode == "warmup":
            return
        wall[mode][p.id].append(dt)
        if mode == "traced":
            for t in TIMERS:
                timers[p.id][t].append(times[t])
            if p.id not in counters:
                counters[p.id] = []
                for rt in runtimes:
                    values, errors = read_counters(rt)
                    counters[p.id].append(values)
                    counter_errors.extend(errors)

    passes = 0
    stop = False
    #: point id -> host time of its last step (timed run and traced twin)
    last_step: Dict[str, float] = {}
    with RuntimeProbe() as probe:
        execute(points[0], "warmup", probe)
        deadline = clock() + seconds if seconds else None
        while not stop and (reps is None or passes < reps):
            for p in points:
                if deadline is not None and p.id in last_step \
                        and clock() + last_step[p.id] > deadline:
                    stop = True
                    break
                t0 = clock()
                execute(p, "timed", probe)
                if trace:
                    # right after the timed run, so that the medians of
                    # the two kinds of run see the same host speeds
                    execute(p, "traced", probe)
                last_step[p.id] = clock() - t0
            else:  # only a pass that ran every point counts
                passes += 1

    out: Dict[str, Any] = {
        "attempted": attempted, "failures": failures, "passes": passes,
        "ref_s": ref,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": {p.id: {"digest": seen.get(p.id, {}).get("digest"),
                          "events": seen.get(p.id, {}).get("events"),
                          "timed_s": wall["timed"][p.id],
                          "traced_s": wall["traced"][p.id],
                          "timers": timers[p.id]}
                   for p in points},
    }
    if trace:
        out["counters"] = counters
        out["counter_errors"] = sorted(set(counter_errors))
        out["sampler"] = {"counts": dict(sampler.counts),
                          "unattributed": sampler.unattributed}
    return out


def setup_probe(name: str, seed: int, smoke: bool) -> List[float]:
    """Seconds to import the workload's code and build and boot its first
    runtime, measured from a fresh interpreter, and the seconds of one
    reference loop timed right after, at the same host speed."""
    from calibrate import reference_seconds
    t0 = time.perf_counter()
    from repro.hpx_rt.runtime import HpxRuntime
    from workloads import WORKLOADS

    class Booted(Exception):
        pass

    boot = HpxRuntime.boot

    def boot_then_stop(rt):
        boot(rt)
        raise Booted

    HpxRuntime.boot = boot_then_stop
    try:
        WORKLOADS[name](smoke)[0].run(seed=seed)
    except Booted:
        return [time.perf_counter() - t0, reference_seconds()]
    raise RuntimeError(f"{name}: the first point never booted a runtime")


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------
def _load_golden() -> Dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text())
    return {}


def _subprocess(args: List[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(PERF / "run.py"), *args],
                          stdout=subprocess.PIPE, env=env, text=True,
                          timeout=timeout, check=True)
    return proc.stdout.strip().splitlines()[-1]


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _src_fingerprint() -> str:
    h = hashlib.sha256()
    pkg = SRC / "repro"
    for path in sorted(pkg.rglob("*.py")):
        h.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args) -> Dict[str, Any]:
    return {
        "host": platform.node(), "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
        "commit": _git_commit(), "src_sha256": _src_fingerprint(),
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(name: str, args, deadline: Optional[float]) -> Dict:
    """Set-up probes, then the workload's children, one after another;
    ``--reps`` or ``--seconds`` is split between the children."""
    common = ["--seed", str(args.seed), "--trace", str(args.trace)] + (
        ["--smoke"] if args.smoke else [])
    setup = [json.loads(_subprocess(["--probe", name, *common], 60))
             for _ in range(1 if args.smoke else SETUP_PROBES)]
    k = PROCESSES if args.reps is None else min(PROCESSES, args.reps)
    parts = []
    for i in range(k):
        child_args = ["--child", name, *common]
        if args.reps is not None:
            child_args += ["--reps", str(args.reps // k + (i < args.reps % k))]
        if args.seconds is not None:
            child_args += ["--seconds", str(args.seconds / k)]
        timeout = deadline - time.monotonic() if deadline else 3600.0
        parts.append(json.loads(_subprocess(child_args, timeout)))
    return workload_report(parts, setup, bool(args.trace))


def workload_report(parts: List[Dict], setup: List[List[float]],
                    traced: bool) -> Dict:
    """Merge the children's raw measurements and the (set-up, reference
    loop) seconds of each set-up probe, and derive the metrics."""
    from calibrate import speed_factor
    from counters import TIMERS, combine
    from sampler import INTERVAL_S, layer_shares, module_shares

    failures = [f for part in parts for f in part["failures"]]
    points: Dict[str, Dict[str, Any]] = {}
    for part in parts:
        for pid, p in part["points"].items():
            m = points.setdefault(pid, {"digest": None, "events": None,
                                        "timed_s": [], "traced_s": [],
                                        "timers": {t: [] for t in TIMERS}})
            for key in ("digest", "events"):
                if m[key] is None:
                    m[key] = p[key]
                elif p[key] is not None and p[key] != m[key]:
                    failures.append({"point": pid, "mode": "merge",
                                     "reason": f"{key} differs between "
                                               "processes"})
            m["timed_s"] += p["timed_s"]
            m["traced_s"] += p["traced_s"]
            for t in TIMERS:
                m["timers"][t] += p["timers"][t]

    def median_sum(series) -> float:
        return sum(statistics.median(xs) for xs in series if xs)

    # every reported host time is expressed at the reference speed; each
    # set-up probe is scaled by the loop timed in its own process, since
    # a burst of neighbour load can cover the probes and miss the children
    ref = [x for part in parts for x in part["ref_s"]]
    speed = speed_factor(ref) if ref else 1.0
    raw_wall_s = median_sum(p["timed_s"] for p in points.values())
    wall_s = raw_wall_s * speed
    events = sum(p["events"] or 0 for p in points.values())
    attempted = sum(part["attempted"] for part in parts)
    res: Dict[str, Any] = {
        "end_to_end": {
            "wall_s": wall_s,
            "events_per_s": events / wall_s if wall_s else 0.0,
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
            "setup_s": statistics.median(s * speed_factor([r])
                                         for s, r in setup),
            "failed_frac": len(failures) / attempted,
        },
        "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "passes": [part["passes"] for part in parts],
        "speed": {"factor": speed, "raw_wall_s": raw_wall_s,
                  "reference_s": summarize(ref) if ref else None},
        "raw_setup_s": summarize([s for s, _ in setup]),
        "setup_reference_s": [r for _, r in setup],
        "points": {pid: {"digest": p["digest"], "events": p["events"],
                         "raw_wall_s": summarize(p["timed_s"])
                         if p["timed_s"] else None}
                   for pid, p in points.items()},
    }
    if not traced:
        return res
    sampled = [part for part in parts if "sampler" in part]
    counts: Dict[str, int] = {}
    counters: Dict[str, List[Dict[str, float]]] = {}
    for part in sampled:
        for mod, n in part["sampler"]["counts"].items():
            counts[mod] = counts.get(mod, 0) + n
        for pid, cs in part["counters"].items():
            counters.setdefault(pid, cs)
    layer = combine([c for cs in counters.values() for c in cs])
    for t in TIMERS:
        layer[t] = speed * median_sum(p["timers"][t]
                                      for p in points.values())
    for pkg, share in layer_shares(counts).items():
        layer[f"{pkg}.self_share"] = share
        layer[f"{pkg}.self_s"] = share * wall_s
    layer.update({f"{m}.self_share": s
                  for m, s in module_shares(counts).items()})
    for metric, scale, self_s, count in (
            ("sim.wall_ns_per_event", 1e9, "sim.self_s", "sim.events"),
            ("parcelport.wall_us_per_message", 1e6, "parcelport.self_s",
             "hpx_rt.messages_sent"),
            ("hpx_rt.wall_us_per_task", 1e6, "hpx_rt.self_s",
             "hpx_rt.tasks_run")):
        if layer.get(count):
            layer[metric] = layer[self_s] / layer[count] * scale
    # every traced run followed a timed run of its point, so the two
    # medians come from the same stretches of host time
    traced_s = median_sum(p["traced_s"] for p in points.values())
    res["per_layer"] = layer
    res["counter_errors"] = sorted({e for part in sampled
                                    for e in part["counter_errors"]})
    res["sampler"] = {
        "interval_s": INTERVAL_S,
        "samples": sum(counts.values()),
        "unattributed": sum(part["sampler"]["unattributed"]
                            for part in sampled),
        "traced_runs": sum(len(p["traced_s"]) for p in points.values()),
        "raw_traced_wall_s": traced_s,
        "overhead_frac": traced_s / raw_wall_s - 1.0 if raw_wall_s else None,
        "raw_traced_wall_by_point": {pid: summarize(p["traced_s"])
                                     for pid, p in points.items()
                                     if p["traced_s"]},
    }
    return res


def check_declared(report: Dict, bench: Dict, names: List[str],
                   traced: bool) -> List[str]:
    """Gaps between the report and BENCHMARK.json: a selected workload,
    or a declared metric or unit, that the report lacks."""
    gaps = []
    kinds = ["end_to_end"] + (["per_layer"] if traced else [])
    for name in names:
        res = report["workloads"].get(name)
        if res is None:
            gaps.append(f"workload {name} missing")
            continue
        for kind in kinds:
            for m in bench[kind]:
                if m["name"] not in res[kind]:
                    gaps.append(f"{name}: {kind} metric {m['name']} "
                                "missing")
                elif unit_of(m["name"]) != m["unit"]:
                    gaps.append(f"{m['name']}: unit {m['unit']} declared, "
                                f"{unit_of(m['name'])} measured")
    return gaps


def record_golden() -> None:
    """Run every point once per golden seed (full and smoke sizes) and
    write their result digests."""
    from workloads import WORKLOADS, digest
    golden: Dict[str, Dict[str, Dict[str, str]]] = {}
    for seed in GOLDEN_SEEDS:
        for name, build in WORKLOADS.items():
            entry = golden.setdefault(str(seed), {}).setdefault(name, {})
            for smoke in (False, True):
                for p in build(smoke):
                    result = p.run(seed=seed)
                    reason = p.check(result)
                    if reason is not None:
                        raise SystemExit(f"{name} {p.id}: {reason}")
                    entry[p.id] = digest(result)
                    print(f"seed {seed} {name} {p.id} {entry[p.id][:12]}",
                          flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--reps", type=int,
                    help="timed passes (default 5, or unlimited with "
                         "--seconds)")
    ap.add_argument("--seconds", type=float,
                    help="time-box the passes to this many seconds (a "
                         "child's first pass always completes)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="follow every timed run with a "
                    "traced one; per-layer metrics replace end-to-end ones "
                    "in the last line")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, one traced rep, and a check "
                         "against BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=PERF / "out" / "last.json",
                    help="full JSON report (default perf/out/last.json)")
    ap.add_argument("--record-golden", action="store_true",
                    help=f"rewrite perf/golden.json for seeds {GOLDEN_SEEDS}")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        ap.error("--reps must be at least 1")
    if args.seconds is not None and not args.seconds > 0:
        ap.error("--seconds must be positive")

    if args.probe:
        print(json.dumps(setup_probe(args.probe, args.seed, args.smoke)))
        return 0
    if args.child:
        res = child(args.child, args.seed, args.reps, args.seconds,
                    bool(args.trace), args.smoke)
        print(json.dumps(res))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        record_golden()
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names}")
        names = [args.workload]
    if args.smoke:
        args.reps, args.seconds, args.trace = 1, None, 1
    elif args.seconds is None and args.reps is None:
        args.reps = 5
    deadline = time.monotonic() + RUN_LIMIT_S if args.seconds else None

    report: Dict[str, Any] = {"manifest": manifest(args), "workloads": {}}
    crashed = []
    for name in names:
        try:
            report["workloads"][name] = run_workload(name, args, deadline)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"{name}: benchmark process failed: {exc}",
                  file=sys.stderr)
            crashed.append(name)
    if crashed:
        return 1

    print(f"# host {report['manifest']['host']} "
          f"cpu_count {report['manifest']['cpu_count']} "
          f"python {report['manifest']['python']} "
          f"commit {report['manifest']['commit']} "
          f"src {report['manifest']['src_sha256'][:12]}")
    for name, res in report["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for metric, value in sorted(res.get(kind, {}).items()):
                print(f"{name:<13} {metric:<34} {value:>16.6g} "
                      f"{unit_of(metric)}")
        for f in res["failures"]:
            print(f"{name:<13} FAILED {f['point']} ({f['mode']}): "
                  f"{f['reason']}")
        print(f"{name:<13} # raw wall {res['speed']['raw_wall_s']:.4f} s, "
              f"host speed factor {res['speed']['factor']:.3f}")
        if res.get("sampler", {}).get("traced_runs"):
            s = res["sampler"]
            print(f"{name:<13} # sampler {s['samples']} samples in "
                  f"{s['traced_runs']} traced runs, traced/untraced "
                  f"overhead {s['overhead_frac']:+.3f}")

    gaps = check_declared(report, bench, names, bool(args.trace))
    for gap in gaps:
        print(f"gap: {gap}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in report["workloads"].values())
    failed = sum(r["failed"] for r in report["workloads"].values())
    correct = failed == 0 and not (args.smoke and gaps)
    report.update(correct=correct, attempted=attempted, failed=failed,
                  gaps=gaps)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    prefix = len(report["workloads"]) > 1
    metrics = {}
    for name, res in report["workloads"].items():
        for m in bench[kind]:
            if m["name"] in res[kind]:
                key = f"{name}.{m['name']}" if prefix else m["name"]
                metrics[key] = {"value": res[kind][m["name"]],
                                "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
