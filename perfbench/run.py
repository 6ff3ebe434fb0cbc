#!/usr/bin/env python3
"""Run one workload of the fosm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus the fosm-perfbench
binary) into $CARGO_TARGET_DIR, default .bench_build; later runs only
check that the build is current. Scratch stores live under
<build dir>/run and are removed before and after every run.

fosm-perfbench's last stdout line is the result object (correct,
attempted, failed, metrics), repeated here as this script's last
line. On any failure the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cpi-hot", "batch-cold", "optimize-overlap", "model-vs-sim")

# Worker threads of the global pool, pinned so both sides of a
# comparison run the same number of threads (4 = this benchmark's
# budget: 2 server workers + 2 client connections on the service
# workloads, the simulator fan-out on model-vs-sim).
POOL_THREADS = "4"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build fosm-perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found next to perfbench/")
    cmake = shutil.which("cmake")
    if not cmake:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 2)
    subprocess.run([cmake, "--build", build_dir, "--target",
                    "fosm-perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "fosm-perfbench")


def remove_stores(work_dir):
    """Drop scratch store directories; keep traced runs' span files."""
    if not os.path.isdir(work_dir):
        return
    for entry in os.listdir(work_dir):
        path = os.path.join(work_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


def check_result(line):
    """fosm-perfbench's result object, validated."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s malformed" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        fail("build failed: %s" % e)

    work_dir = os.path.join(build_dir, "run")
    remove_stores(work_dir)
    env = dict(os.environ)
    env["FOSM_THREADS"] = POOL_THREADS
    for knob in ("FOSM_TRACE_INSTS", "FOSM_FAULTS"):
        env.pop(knob, None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        remove_stores(work_dir)

    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("fosm-perfbench exited with status %d" % proc.returncode)
    try:
        result = check_result(lines[-1])
    except ValueError as e:
        fail("bad result line: %s" % e)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
