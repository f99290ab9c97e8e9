#!/usr/bin/env python3
"""Steadiness report: runs each workload several times, one seed per run, and
prints for every metric its median, quartiles, the quartile spread as a share
of the median (the figure each bound in BENCHMARK.json is set against) and
the largest deviation of any run from the median.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads cluster_churn --trace 1

An end-to-end metric is steady when its spread is below a third of its
bound; setup_s is exempt. Per-layer metrics (--trace 1) have no bound and
are listed for information.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    steady = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in names}
        started = time.time()
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect output\n{out.stderr}", file=sys.stderr)
                steady = False
            for name in names:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{wl}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{time.time() - started:.0f}s")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'maxdev':>8} {'bound':>6}")
        for name in names:
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            maxdev = max(abs(x - med) for x in xs) / med if med else float("inf")
            line = f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {maxdev:8.3f}"
            if name in bounds:
                ok = name == "setup_s" or spread < bounds[name]["bound"] / 3
                steady = steady and ok
                line += f" {bounds[name]['bound']:6.2f}{'' if ok else '  UNSTEADY'}"
            print(line)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
