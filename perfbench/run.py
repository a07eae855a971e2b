#!/usr/bin/env python3
"""Builds and runs one RLS benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The benchmark and the RLS
libraries are built from source (Release) into the directory named by
CARGO_TARGET_DIR, default .bench_build; the first run builds, later runs
only check that the build is current. Each run gets a scratch directory
under the build directory for its WAL files, removed when the run ends.

The last line of standard output is the run's JSON result; the exit code
is the benchmark's (0 = every reply checked and correct). See
perfbench/METRICS.md for the workloads and the metric map.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 170  # a run must end within 180 s


def main(argv):
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: RLS sources not found under {root}/src", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)

    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "rls_perfbench",
                  "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    workdir = tempfile.mkdtemp(prefix="run.", dir=build_dir)
    try:
        cmd = [str(build_dir / "rls_perfbench")] + argv + ["--workdir", workdir]
        try:
            proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        return proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
