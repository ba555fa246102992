#!/usr/bin/env python3
"""Build the simulator's benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cpu-resnet200 --seed 1 \
        --seconds 10 --trace 0

The program (perfbench/perfbench.cc) is built with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset.  Build output goes to stderr; the program's stdout, whose last line
is the JSON result, is passed through unchanged.  See perfbench/README.md
for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configure once, then (re)build the program; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources next to %s" % BENCH_DIR)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steps", type=int, help="steps per rep (default 9)")
    ap.add_argument("--warmup", type=int, help="warm-up steps (default 6)")
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.steps is not None:
        cmd += ["--steps", str(args.steps)]
    if args.warmup is not None:
        cmd += ["--warmup", str(args.warmup)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
