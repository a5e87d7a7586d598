#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

    python3 perfbench/run.py --workload <proxy_hot|wan_kv|bulk_swarm> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark binary is configured and built
(Release) into .bench_build/ on first use; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. With --trace 1 the traced phase's raw spans are
written to .bench_build/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans-out", os.path.join(
                BUILD, f"spans-{args.workload}-{args.seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
