#!/usr/bin/env python3
"""Steadiness check for the vmmk benchmark.

Runs the benchmark ten times on every workload named in BENCHMARK.json,
with seeds 1 to 10, and prints, for every end-to-end metric, the median,
the quartiles and the quartile spread as a share of the median, next to
the metric's bound. Each run's metrics go to standard error as a JSON line.
Run from the repository root:

    python3 vmmkbench/steadiness.py

The markdown table it prints is the form NOTES.md records.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---:|---:|---:|---:|---:|")
    for w in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, RUNS + 1):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(json.dumps({"workload": w, "seed": seed, "metrics": res["metrics"]}), file=sys.stderr, flush=True)
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"| {w} | {m['name']} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {m['bound']} |", flush=True)


if __name__ == "__main__":
    main()
