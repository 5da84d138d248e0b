#!/usr/bin/env python3
"""Build the seqge benchmark (Release) and run one workload.

    python3 perfbench/run.py --workload batch_all|seq_fpga|iot_serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs. The benchmark
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. The exit code is the
binary's: 0 when every correctness check held.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build() -> Path:
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "Makefile").exists():  # written only by a successful configure
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "seqge_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "seqge_perfbench"


def main() -> int:
    binary = build()
    try:
        done = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
