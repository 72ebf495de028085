#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 loadbench/run.py --workload browse --seed 1 --seconds 30 --trace 0
    python3 loadbench/run.py --selftest

Run from the root of a checkout. The engine is built from ../src into the
directory named by CARGO_TARGET_DIR (default .bench_build); the workload's
fixed rate and rate ladder are read from the `why` of its entry in
BENCHMARK.json. The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# "rate 2000/s, ladder rate*1.1^k for k=-4..11"
RATE_RE = re.compile(r"rate (\d+(?:\.\d+)?)/s, ladder rate\*1\.1\^k for k=-(\d+)\.\.(\d+)")


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no engine sources at %s; run from a full checkout" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def workload_rates(name):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    for w in spec.get("workloads", []):
        if w.get("name") == name:
            m = RATE_RE.search(w.get("why", ""))
            if not m:
                fail("workload %s states no rate ladder in BENCHMARK.json" % name)
            return m.group(1), m.group(2), m.group(3)
    fail("unknown workload %s" % name)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not args.selftest:
        rate, down, up = workload_rates(args.workload)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "loadbench_selftest")]).returncode)

    cmd = [os.path.join(build_dir, "loadbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", rate, "--ladder-down", down, "--ladder-up", up,
           "--out-dir", os.path.abspath(".bench_out"), "--commit", commit()]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
