#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload sim_long --seed 1 --seconds 30 --trace 0

Every call configures and builds into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; only the first compiles everything.
Build output goes to stderr, so the last line of stdout is the benchmark's
result object. Extra flags (--scale tiny, --corrupt ...) pass through to the
benchmark binary. Exits non-zero if the build or any correctness check fails.
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "e2ebench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(step))
            return None
    return build_dir / "e2ebench"


def main():
    binary = build()
    if binary is None:
        return 1
    done = subprocess.run([str(binary)] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
