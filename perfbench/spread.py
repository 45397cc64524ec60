#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs the command in BENCHMARK.json once per seed and workload, from the
repository root, and reports for every metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median. End-to-end spreads are compared with a third of the
metric's bound. Every run must report ``correct: true``.

    python3 perfbench/spread.py --workloads solo,corun --seeds 1-5 \
        [--trace 0|1] [--out perfbench/noise_floor.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed: {lines[-1]}")
    digest = next((l.split()[2] for l in lines if l.strip().startswith("model digest")), "?")
    host = next((l for l in lines if l.startswith("host: ")), "host: ?")[6:]
    # The report line carries every end-to-end figure, bounded or not.
    for line in lines:
        if line.startswith("e2e "):
            for name, m in json.loads(line[4:])["metrics"].items():
                result["metrics"].setdefault(name, m)
    return result, wall, digest, host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": args.seeds, "trace": args.trace,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, walls, digests = {}, [], []
        for seed in seeds(args.seeds):
            result, wall, digest, report["host"] = run(
                bench["command"], workload, seed, bench["run_seconds"], args.trace)
            walls.append(wall)
            digests.append(digest)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"\n{workload}: {len(walls)} runs, {min(walls):.1f}-{max(walls):.1f} s each")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else "WIDE (>= bound/3)"
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:<42} median {med:<14.6g} spread {shown:>8}  {flag}")
        report["workloads"][workload] = {"metrics": rows, "run_wall_s": walls,
                                         "digests": digests}
    report["worst_spread_over_bound"] = worst
    print(f"\nworst end-to-end spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    main()
