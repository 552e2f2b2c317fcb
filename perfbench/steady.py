#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]
                                [--seed0 1] [--seconds S] [--trace 0]

Runs `perfbench/run.py` RUNS times per set, each with another seed
(seed0, seed0+1, ...; every set reuses the same seeds), and prints for
each metric its median, first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread
(q3-q1)/median, and the range (max-min)/median. With --sets 2 it also
prints how far the second set's median moved from the first's, as a
share of the first. The spread and the drift are checked against each
metric's bound in BENCHMARK.json; "ok" means below a third of it.

Run from the repository root. Every run's result line is echoed so the
raw values can be kept.
"""

import argparse
import json
import statistics
import subprocess
import sys


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: run failed (seed {seed}, exit {proc.returncode})")
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("{"):
            print(f"# seed {seed} info: {line}", flush=True)
    print(f"# seed {seed}: {lines[-1]}", flush=True)
    if not res["correct"] or res["failed"]:
        print(f"# seed {seed}: INCORRECT ({res['failed']} failed)", flush=True)
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    rng = (max(values) - min(values)) / med if med else float("inf")
    return med, q1, q3, spread, rng


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        runs = [one_run(args.workload, args.seed0 + i, seconds, args.trace) for i in range(args.runs)]
        sets.append(runs)

    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'rng/med':>8} {'drift':>7}  bound")
    for name in sets[0][0]:
        per_set = [summary([r[name] for r in runs]) for runs in sets]
        med, q1, q3, spread, rng = per_set[0]
        drift = (per_set[-1][0] - med) / med if len(sets) > 1 and med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            worst = max(abs(drift), max(ps[3] for ps in per_set) if name != "setup_s" else 0.0)
            verdict = f"{bound:.2f} " + ("ok" if worst < bound / 3 else "WITHIN" if worst <= bound else "OVER")
        print(f"{name:24} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {rng:8.3f} {drift:+7.3f}  {verdict}")


if __name__ == "__main__":
    main()
