#!/usr/bin/env python3
"""Steadiness check of the flexprot benchmark's timed metrics.

Runs the benchmark N times per workload, each time with another seed, and
prints for every end-to-end metric the spread of its N values: the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of their median, against the metric's bound in BENCHMARK.json.
Exits 1 when a spread other than setup_s exceeds its bound or a run fails.

Run from the repository root after building the benchmark once:

    python3 flexbench/steadiness.py --runs 10 --workloads protect simulate tamper
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {last}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    reference = re.search(r"reference: \d+ passes, median ([\d.]+) ms", proc.stdout)
    if reference:
        metrics["reference_pass_ms"] = float(reference.group(1))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--json", help="write every run's metrics (and the "
                        "median reference pass, in ms) here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    record = {}
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        record[workload] = runs
        print(f"== {workload}: {args.runs} runs")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            verdict = "ok" if spread <= bound else "OVER"
            if spread > bound / 3:
                verdict += " (above a third of the bound)"
            if spread > bound and name != "setup_s":
                ok = False
            print(f"{name:<28} median {med:>12.5g}  spread {spread:7.4f}  bound {bound:5.3f}  {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
