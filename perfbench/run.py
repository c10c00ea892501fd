#!/usr/bin/env python3
"""Build the serve benchmark from source, then run it.

    python3 perfbench/run.py --workload ingest_trained --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The Release build goes to
.bench_build/perfbench (configured once, rebuilt incrementally on every
run); build output goes to stderr so the benchmark's JSON result stays
the last line of stdout. Every other argument is passed through to
serve_bench.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the program's sources are not next to the "
                 "benchmark (no src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4",
                    "--target", "pmcorr", "serve_bench"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [os.path.join(BUILD, "serve_bench"),
           "--pmcorr", os.path.join(BUILD, "pmcorr_tools", "pmcorr")]
    cmd += sys.argv[1:]
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
