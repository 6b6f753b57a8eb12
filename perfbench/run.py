#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload write-mix|read-large|kv-pipelined|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/main.exe from
source with dune (into .bench_build/), runs one workload and prints the
program's report; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A traced run also
writes its span log to .bench_out/. Exits non-zero, without a result,
when the build or the run fails. --workload all runs the three in turn
with one seed, printing each report.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("write-mix", "read-large", "kv-pipelined")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the repository" % need)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "-j", "2",
           "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(exe, workload, args)


def run(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "spans-%s-%d.tsv" % (workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("run failed with exit code %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(r.stdout)
        fail("the run printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: %s" % lines[-1])
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
