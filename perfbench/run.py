#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds rfid_clean and the
benchmark harness from source (release profile, into .bench_build/),
runs the harness for one workload, and prints its output; the last line
is the JSON result. The harness's metric names are checked against
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).

Exits non-zero, without a result, when the sources are missing, the
build fails, the harness fails or times out, or the result is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/rfid_clean.exe", "./perfbench/perfbench.exe"]
SOURCES = ["dune-project", "bin/rfid_clean.ml", "lib", "perfbench/dune", "BENCHMARK.json"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
           "-j", "2", *TARGETS]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if proc.returncode != 0:
        die(f"build failed: exit {proc.returncode}")


def run_harness(args, scratch, spans):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    cli = os.path.join(BUILD_DIR, "default", "bin", "rfid_clean.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--scratch", scratch]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The harness's own cleanup did not get to run: end its whole
        # process group (it and any server it started), then reap.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        die(f"harness timed out after {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out


def check_result(line, names):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(res["failed"], int) or not isinstance(res["correct"], bool):
        return "failed/correct malformed"
    if set(res["metrics"]) != set(names):
        missing = set(names) - set(res["metrics"])
        extra = set(res["metrics"]) - set(names)
        return f"metric names differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}"
    for name, m in res["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or m.get("unit") != names[name]:
            return f"metric {name} malformed: {m}"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", default="", help="write the traced run's spans here (JSON lines)")
    args = p.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        die(f"not a source checkout (missing {', '.join(missing)}); run from the repository root")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload}")
    layer = bench["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in layer}

    build()
    scratch = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    spans = args.spans or (os.path.join(BUILD_DIR, f"spans-{args.workload}.jsonl") if args.trace else "")
    code, out = run_harness(args, scratch, spans)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if code != 0 or not lines:
        sys.stdout.write(out)
        die(f"harness failed (exit {code})")
    problem = check_result(lines[-1], names)
    for line in lines[:-1]:
        print(line)
    if problem:
        die(f"malformed result: {problem}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
