#!/usr/bin/env python3
"""Steadiness report: run each workload once per seed and show how far
each metric spreads against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]
        [--save FILE] [--against FILE]

Seeds run from 1 to --runs.  For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread as a share of the metric's bound.  A
metric is "steady" when its spread is below a third of its bound and
"UNSTEADY" when it is above the bound.  Tail percentiles from the context
line are shown without a bound.  --save writes the values as JSON; --against
compares the medians with a saved file and flags any metric whose median
got worse by more than its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CONTEXT_TAILS = ("solve_ms_p90", "solve_ms_p99", "request_ms_p90", "request_ms_p99")


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    context = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    return result, context


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}

    saved = {}
    verdict = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        tails = {}
        attempted = failed = 0
        for seed in range(1, 1 + args.runs):
            start = time.time()
            result, context = run_once(workload, seed, spec["run_seconds"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for key in CONTEXT_TAILS:
                if key in context:
                    tails.setdefault(key, []).append(float(context[key]))
            shown = " ".join(f"{name}={values[name][-1]:.4g}" for name in bounds)
            print(f"  {workload} seed {seed}: {time.time() - start:.1f} s, "
                  f"samples {context.get('samples', '?')}, {shown}", file=sys.stderr)
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs, attempted {attempted}, failed {failed}")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}{'/bound':>8}  verdict")
        verdict |= failed != 0
        for name, metric in bounds.items():
            q1, median, q3 = quartiles(values[name])
            spread = (q3 - q1) / median if median else float("inf")
            share = spread / metric["bound"]
            if share < 1 / 3:
                status = "steady"
            elif share <= 1:
                status = "within bound"
            else:
                status = "UNSTEADY"
                verdict = 1
            old = baseline.get(workload, {}).get(name)
            if old:
                old_median = statistics.median(old)
                change = (median - old_median) / old_median
                worse = change if metric["better"] == "lower" else -change
                status += f", vs saved {change:+.1%}"
                if worse > metric["bound"]:
                    status += " REGRESSION"
                    verdict = 1
            print(f"  {name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{metric['bound']:>7.2f}{share:>8.2f}  {status}")
        for key, tail in tails.items():
            if len(tail) >= 2:
                q1, median, q3 = quartiles(tail)
                print(f"  {key:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{(q3 - q1) / median:>9.3f}      -       -  context only")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
