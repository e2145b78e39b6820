"""Builds bench_suite from source and runs it.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures a Release build in
$CARGO_TARGET_DIR (default .bench_build) and compiles the simulator
libraries, h3cdn_obs_report and bench_suite; later calls only check that the
build is up to date. Build output goes to stderr, so the last line of stdout
is bench_suite's result object. Exits nonzero, printing no result, when the
build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["bench_suite", "h3cdn_obs_report"]


def build(build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    binary = os.path.join(build_dir, "bench_suite")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
