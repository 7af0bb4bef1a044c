#!/usr/bin/env python3
"""Run one workload of the joinproj benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune
(into .bench_build/), computes the oracle checksums in one process,
measures in a second one, and prints the measuring process's JSON
result as the last line of standard output, with its peak resident set
added as peak_rss_mb.  The full result, with the seed, the pinned
machine record and the per-query plans, goes to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("dense-2path", "sparse-2path", "counted-ssj", "served-open")
BUILD_TIMEOUT_S = 850
# The oracle and the measurement together must end within this many
# seconds of the build finishing.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout):
    """Runs cmd to completion, killing it after timeout seconds.

    Returns its exit code, its standard output and its own peak resident
    set in KiB (from wait4, so other children do not count)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        fail("%s killed after %.0f s" % (" ".join(cmd[1:3]), timeout))
    return proc.returncode, out.decode(), usage.ru_maxrss


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not os.path.exists("dune-project"):
        fail("run from the repository root (no dune-project here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    results = os.path.join("perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d" % (a.workload, a.seed))
    expected = stem + ".expected"
    result = stem + "-trace%d.json" % a.trace
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--machine", os.path.join("perfbench", "machine.json"),
              "--expected", expected]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    code, _, _ = run_child([EXE, "--phase", "oracle"] + common,
                           deadline - time.monotonic())
    if code != 0:
        fail("oracle failed")

    code, out, rss_kib = run_child(
        [EXE, "--phase", "measure", "--seconds", str(a.seconds),
         "--trace", str(a.trace), "--result", result] + common,
        deadline - time.monotonic())
    lines = out.strip().splitlines()
    if not lines:
        fail("measurement printed nothing (exit %d)" % code)
    summary = json.loads(lines[-1])
    if a.trace == 0:
        summary["metrics"]["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
        with open(result) as f:
            full = json.load(f)
        full["metrics"] = summary["metrics"]
        with open(result, "w") as f:
            json.dump(full, f, indent=2)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(summary))
    sys.exit(code)


if __name__ == "__main__":
    main()
