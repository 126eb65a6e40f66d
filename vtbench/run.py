#!/usr/bin/env python3
"""vtbench: build vtsim and the benchmark from source, run one workload.

    python3 vtbench/run.py --workload fig3_seq --seed 1 --seconds 30 --trace 0
    python3 vtbench/run.py --self-test   # the benchmark's own unit tests
    python3 vtbench/run.py --bless       # re-record vtbench/digests.txt

Run from the repository root. The build goes to .bench_build/vtbench and
scratch files (traces, service spool, span files) to .bench_build/vtbench-out.
The last line of stdout is the result object; build output and
diagnostics go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vtbench")
# Relative to ROOT (the binary's working directory), which keeps the
# service's Unix socket path short.
OUT = os.path.join(".bench_build", "vtbench-out")
DIGESTS = os.path.join(HERE, "digests.txt")
RUN_TIMEOUT_S = 170


def fail(message):
    print("vtbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vtsim sources at " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", target]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("vtbench_tests")]).returncode)
    binary = build("vtbench")
    if args.bless:
        sys.exit(subprocess.run([binary, "--bless", "--digests", DIGESTS,
                                 "--out", OUT], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", DIGESTS, "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("vtbench exited with %d" % proc.returncode)

    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        fail("last line is not a result object: " + lines[-1][:200])
    if result.get("correct") is not True or result.get("failed") != 0:
        fail("wrong simulated results: " + lines[-1][:200])
    want = expected_metrics(args.trace)
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
