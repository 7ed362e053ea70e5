#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

    python3 perfbench/run.py --workload paper_week --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
acdn libraries and the benchmark (Release) under .bench_build/perfbench;
later calls rebuild only what changed. The program's standard output is
passed through unchanged, so its last line is the result JSON. When a step
fails, a line naming it goes to standard error and the exit code is not 0.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(step, detail):
    sys.stderr.write("perfbench: step '%s' failed: %s\n" % (step, detail))
    sys.exit(2)


def run_logged(step, cmd, log_path):
    """Runs a build command with its output in a log file."""
    with open(log_path, "w") as log:
        code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
    if code != 0:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        sys.stderr.write(tail)
        fail(step, "exit code %d (log: %s)" % (code, log_path))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("locate sources", "no src/CMakeLists.txt next to perfbench/")
    if shutil.which("cmake") is None:
        fail("configure", "cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged("configure", cmd, os.path.join(BUILD, "configure.log"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged("build", ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               os.path.join(BUILD, "build.log"))
    return os.path.join(BUILD, target)


def run_program(step, cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(step, "no result within %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail(step, "exit code %d" % code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--fault-seed", type=int)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check fails on corrupted data")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_checks_test")
        run_program("self-test", [binary, BUILD])
        return
    if not args.workload:
        fail("arguments", "--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(BUILD, "out")]
    if args.fault_seed is not None:
        cmd += ["--fault-seed", str(args.fault_seed)]
    sys.stdout.flush()
    run_program("run " + args.workload, cmd)


if __name__ == "__main__":
    main()
