#!/usr/bin/env python3
"""Build the benchmark binary from this checkout and run one workload.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) under .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr, and stdout ends with
the result JSON line. Exits non-zero when the build fails, a correctness
check fails, or the output digest of a seed recorded in digests.json
changed (the work itself changed, so timings would not compare).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bsm_perfbench")
WORKLOADS = ("grid_sweep", "protocol_runs", "schedule_fuzz")
RUN_TIMEOUT_S = 170


def build():
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bsm_perfbench", "-j", str(jobs)],
                   stdout=sys.stderr, check=True)


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f).get(f"{workload}/{seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: no result line: {lines[-1]}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    digest = next((l.split()[1] for l in lines if l.startswith("output_digest ")), None)
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and digest != expected:
        print(f"perfbench: output digest {digest} != recorded {expected} for "
              f"{args.workload} seed {args.seed}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
