#!/usr/bin/env python3
"""Build omnibench from source and run one workload.

    python3 bench/omnibench/run.py --workload bc_cold --seed 1 \
        --seconds 25 --trace 0 [--trace-out FILE]

Run from anywhere inside an OmniSim checkout. The first call configures
and builds the library and the omnibench program into build-bench/ at the
checkout root (Release); later calls only re-check the build. Build output
goes to standard error, so the last line of standard output is the JSON
result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench" / "omnibench"
BUILD = ROOT / "build-bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"omnibench: {ROOT} is not an OmniSim checkout "
                 "(CMakeLists.txt and src/ are missing)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "omnibench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            sys.exit(f"omnibench: build step failed: {e}")
    return BUILD / "omnibench"


def main():
    binary = build()
    cmd = [str(binary), *sys.argv[1:],
           "--scratch", str(BUILD / "omnibench-scratch")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"omnibench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
