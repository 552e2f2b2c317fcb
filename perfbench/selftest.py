#!/usr/bin/env python3
"""Self-test of the benchmark harness itself.

    python3 perfbench/selftest.py

Run from the repository root. Checks, against the real binary:

1. open loop: SIGSTOP the server in the middle of an open-loop read
   stream; every request due during the stop must carry the rest of
   the stop in its latency, and the generator's lateness must be
   reported and stay small (it keeps its schedule while the server is
   stopped);
2. cleanup: after a normal run, a run with a failed check, a run that
   raises while a server is up, and a run stopped with SIGTERM, no
   child process is left and the run's scratch directory is gone.
"""

import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXE = os.path.join(run.BUILD_DIR, "default", "perfbench", "perfbench.exe")
CLI = os.path.join(run.BUILD_DIR, "default", "bin", "rfid_clean.exe")


def leftovers(scratch):
    """Processes whose command line names the scratch directory."""
    found = []
    needle = os.path.abspath(scratch).encode()
    rel = scratch.encode()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if (needle in cmd or rel in cmd) and int(pid) != os.getpid():
            found.append(int(pid))
    return found


def harness(workload, scratch, env_extra=None, seconds=1, sigterm_after=None):
    cmd = [EXE, "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", "0",
           "--cli", CLI, "--scratch", scratch]
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    if sigterm_after is not None:
        time.sleep(sigterm_after)
        proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=170)
    lines = out.strip().split("\n") if out.strip() else []
    result = None
    if lines:
        try:
            res = json.loads(lines[-1])
            if "correct" in res:
                result = res
        except ValueError:
            pass
    return proc.returncode, result


def main():
    run.build()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    scratch = os.path.join(run.BUILD_DIR, "selftest-stall")
    code, res = harness("selftest_stall", scratch)
    expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
           f"open loop: requests due during SIGSTOP carry the stop, generator lateness reported ({res})")

    cases = [
        ("normal run", {}, None, lambda c, r: c == 0 and r is not None and r["correct"]),
        ("failed check", {"PERFBENCH_INJECT": "check"}, None,
         lambda c, r: c == 0 and r is not None and not r["correct"] and r["failed"] >= 1),
        ("exception with a server up", {"PERFBENCH_INJECT": "raise"}, None, lambda c, r: c != 0 and r is None),
        ("SIGTERM mid-run", {}, 6.0, lambda c, r: c != 0 and r is None),
    ]
    for name, env, term, judge in cases:
        scratch = os.path.join(run.BUILD_DIR, "selftest-" + name.split()[0])
        code, res = harness("serve_query", scratch, env, sigterm_after=term)
        expect(judge(code, res), f"{name}: exit {code}, result {'present' if res else 'absent'}")
        expect(not os.path.exists(scratch), f"{name}: scratch directory removed")
        left = leftovers(scratch)
        expect(not left, f"{name}: no child process left {left}")
        for pid in left:
            os.kill(pid, signal.SIGKILL)

    if failures:
        sys.exit(f"selftest: {len(failures)} failure(s)")
    print("selftest: ok")


if __name__ == "__main__":
    main()
