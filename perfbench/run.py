#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds song_perfbench and song_server from the repository sources into
.bench_build (or $CARGO_TARGET_DIR), runs one workload, and prints the
JSON result as the last line of stdout: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
Build output and diagnostics go to stderr. Exits non-zero, without a result
line, when the build or the run fails; exits non-zero after the result line
when the run found a wrong answer. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "song_perfbench", "song_server"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out.decode()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["batch-clustered", "serve-highdim", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    build(build_dir)

    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [os.path.join(build_dir, "song_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(build_dir, "song_server"),
           "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, out = run(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("the run printed no result (exit code %d)" % code)
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ expected))
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
