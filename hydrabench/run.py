#!/usr/bin/env python3
"""hydrabench launcher: builds the benchmark, then prepares and measures one run.

Usage (from the repository root):

    python3 hydrabench/run.py --workload knn-ram --seed 1 --seconds 20 --trace 0

Steps: configure and build hydrabench/ (which compiles the hydra library
from ../src) into .bench_build/hydrabench, run the helper self-tests, write
the seeded data, queries and reference answers to .bench_run/<workload>
(`hydrabench prepare`), then measure in a separate process
(`hydrabench measure`), so the measured peak RSS holds only what the
system under test uses. The last line of standard output is the result
JSON; every result line is also appended, with its fingerprint, to
.bench_run/results.jsonl, and a traced run leaves its spans in
.bench_run/<workload>.spans.json. The run's data files are deleted at the
end.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("knn-ram", "knn-ooc", "serve-open")
# A run (after the first build) must end within 180 s; the step limits
# add up to less.
SELFTEST_TIMEOUT_S = 10
PREPARE_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 135


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest(root, bench_dir):
    """SHA-256 over the library and benchmark sources: the code under test."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), bench_dir):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(bench_dir, build_dir):
    """Configures and builds; False when either step fails."""
    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("error: build step failed: " + " ".join(step))
            return False
    return True


def run_step(command, timeout):
    """Runs one hydrabench step; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("error: timed out after %d s: %s" % (timeout, " ".join(command)))
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build", "hydrabench")
    binary = os.path.join(build_dir, "hydrabench")
    if not build(bench_dir, build_dir):
        return 1
    code, _ = run_step([binary, "selftest"], SELFTEST_TIMEOUT_S)
    if code != 0:
        log("error: benchmark self-tests failed")
        return 1

    run_dir = os.path.join(root, ".bench_run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", run_dir]
        code, _ = run_step([binary, "prepare"] + common, PREPARE_TIMEOUT_S)
        if code != 0:
            log("error: prepare failed")
            return 1
        code, lines = run_step(
            [binary, "measure"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--source", source_digest(root, bench_dir)],
            MEASURE_TIMEOUT_S)
        spans = os.path.join(run_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, run_dir + ".spans.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = None
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        log("error: the measuring run printed no result")
        return 1
    if fingerprint is not None:
        print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    with open(os.path.join(root, ".bench_run", "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": fingerprint, "trace": args.trace,
                            "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
