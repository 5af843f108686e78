#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload unc_paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  The harness (e2ebench/*.cpp) is built
in Release mode under $CARGO_TARGET_DIR (default .bench_build), then
run once; its last line of standard output is the result JSON.  The
exit status is the harness's: 0 when every output check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(directory):
    """Configures (once) and builds the harness; logs go to stderr."""
    configure = ["cmake", "-S", str(HERE), "-B", str(directory),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(directory), "-j", "4",
                "--target", "e2e_bench"]
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr,
             "timeout": BUILD_TIMEOUT_S}
    if not (directory / "CMakeCache.txt").exists():
        if subprocess.run(configure, **quiet).returncode != 0:
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(directory, ignore_errors=True)
            subprocess.run(configure, check=True, **quiet)
    subprocess.run(compile_, check=True, **quiet)
    return directory / "e2e_bench"


def clean_env():
    """The library reads RASCAL_* variables (thread count, checkpoint
    cadence, fault injection); the benchmark fixes them all."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RASCAL_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work", str(directory / "work" / args.workload)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
