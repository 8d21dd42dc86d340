#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--held-out]

Run from the root of a checkout. The driver is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), together
with the library, from the repository's own CMakeLists.txt. The last line
of standard output is the driver's JSON result. Exits non-zero, without a
result, when the checkout has no library sources, the build fails, or the
driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig05-v1", "probe-v2", "bulk-v2", "fuzz-mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then let the build tool bring the driver up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at the checkout root: nothing to build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--held-out", action="store_true",
                    help="draw inputs from the held-out pool")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests", args.workload + ".txt")]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir,
                                        f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.held_out:
        cmd.append("--held-out")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no JSON result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
