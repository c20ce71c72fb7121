#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The simulator and perfbench/bench.exe
are built with dune into .bench_build/ (release profile, dune cache off,
compiler temporaries in .bench_build/tmp, so nothing is written outside
the checkout).  Then bench.exe runs the workload and its output is
passed through; its last line is the JSON result.  Extra arguments (e.g. --quick) go to
bench.exe unchanged.  Exits non-zero without a result when the build or
the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: run from the root of a checkout (no dune-project here)")
    # The compiler's temporary files go inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {done.returncode})")


def main():
    build()
    sys.stdout.flush()
    try:
        done = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=175)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run failed: {e}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
