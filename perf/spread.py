#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python perf/spread.py [--seeds 10] [--workload NAME] [--out FILE]

Runs the command in ``BENCHMARK.json`` once per workload and seed
(seeds 1..N, ``--seconds run_seconds --trace 0``), then prints for every
end-to-end metric the distance between the first and third quartile of
its values as a share of their median, next to the metric's bound.  The
seed does not change the work of ``msgrate_8b`` or ``latency_16k``, so
their spread is host noise alone; ``octotiger_l4``'s work changes on some
seeds and ``serve_knee``'s on every seed.  A steady benchmark keeps every
spread but ``setup_s``'s
below a third of its bound.  Also reports how long each run took, and
the projected time of ``4 + 22 x workloads`` runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--out", type=Path,
                    default=ROOT / "perf" / "out" / "spread.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([args.workload] if args.workload
             else [w["name"] for w in bench["workloads"]])
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        elapsed = []
        for seed in range(1, args.seeds + 1):
            run_report = args.out.parent / "spread" / f"{name}-{seed}.json"
            cmd = [*bench["command"], "--workload", name, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0", "--out", str(run_report)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=180)
            elapsed.append(time.monotonic() - t0)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if proc.returncode == 0 else None
            if last is None or not last["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            for metric, v in last["metrics"].items():
                values[metric].append(v["value"])
        rows = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / statistics.median(xs)
            rows[m["name"]] = {"values": xs, "median": statistics.median(xs),
                               "spread": spread, "bound": m["bound"]}
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok &= steady
            print(f"{name:<13} {m['name']:<13} median "
                  f"{statistics.median(xs):>12.6g} {m['unit']:<4} spread "
                  f"{spread:6.3f} bound {m['bound']:.2f}"
                  f"{'' if steady else '  UNSTEADY'}", flush=True)
        print(f"{name:<13} run time: median {statistics.median(elapsed):.1f}"
              f" s, max {max(elapsed):.1f} s", flush=True)
        report["workloads"][name] = {"metrics": rows, "elapsed_s": elapsed}
    runs = 4 + 22 * len(bench["workloads"])
    per_run = statistics.mean(
        t for w in report["workloads"].values() for t in w["elapsed_s"])
    report["projected_total_s"] = runs * per_run
    print(f"projected {runs} runs: {runs * per_run:.0f} s")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
