#!/usr/bin/env python3
"""Atlas pipeline benchmark entry point.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (pipebench/,
compiling the Atlas sources under src/) into $CARGO_TARGET_DIR/pipebench, or
.bench_build/pipebench when that variable is unset, then runs one workload in
its own process and relays its output. The last line of stdout is the result
object; build output and diagnostics go to stderr. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("surrogate_bound", "loopback_farm")
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """A run lasts about --seconds on the reference host, plus set-up probes
    and the oracle search; this leaves room for a host three times slower
    (170 s at 40)."""
    return 4 * seconds + 10


def build(build_dir):
    """Configure (cheap once cached), then bring the benchmark binary up to date."""
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "atlas_pipebench"],
        stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S, env=env)
    return os.path.join(build_dir, "atlas_pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "pipebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"pipebench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(args.seconds))
    except (OSError, subprocess.SubprocessError) as err:
        print(f"pipebench: run failed: {err}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pipebench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("pipebench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
