#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed, then prints, for every metric, its
median and the distance between its first and third quartiles as a share
of the median (the steadiness test `BENCHMARK.json`'s bounds are checked
against), and that share against a third of the metric's bound.

    python3 perfbench/spread.py loopback-stream --seeds 1-5 [--trace 0]

Run it from the repository root after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="append each result line to this file")
    ap.add_argument("--log", help="append each run's stderr to this file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"== {args.workload} seed {seed}\n{run.stderr}")
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
        print(f"seed {seed}: {status} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            share = (q[2] - q[0]) / med if med else float("nan")
        else:
            share = float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:.3f}" if bound else "-"
        flag = " !" if bound and name != "setup_s" and share > bound / 3 else ""
        print(f"{name:<28} {med:>14.6g} {share:>11.3f} {limit:>8}{flag}")


if __name__ == "__main__":
    main()
