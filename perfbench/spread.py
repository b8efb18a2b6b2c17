#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, then reports for every end-to-end metric the median and the
spread: the distance between the first and third quartile of the values
(`statistics.quantiles(values, n=4)`) as a share of their median.  A spread
above a third of the metric's bound is flagged (setup_s is exempt, as in
the acceptance rule).

    python3 perfbench/spread.py [--seeds 10] [--workload NAME ...] [--out FILE]

Run it from the repository root.  With --out, the table is also written as
JSON to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The benchmark's default seed, then the next ones.
FIRST_SEED = 11


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--out")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + a.seeds))

    report = {"nproc": os.cpu_count(), "seeds": seeds,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for w in workloads:
        values = {}
        for seed in seeds:
            metrics = run_once(spec["command"], w, seed, spec["run_seconds"])
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vs}
            print(f"  {w:<14} {name:<22} median {med:10.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
        report["workloads"][w] = rows
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
