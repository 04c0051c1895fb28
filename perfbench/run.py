#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark program
(perfbench/bench.ml) is built with `dune build --profile release` into the
checkout's _build directory, then run once; its standard output, whose last
line is the JSON result, passes through unchanged. Build output goes to
standard error. The exit code is non-zero when the sources, the build or the
run fail, and no result is printed then.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
# A run must end within 180 s of its start; the build is not counted.
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no simulator sources here (missing %s)" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--profile", "release", "./perfbench/bench.exe"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    start = time.monotonic()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s after %.0f s" % (RUN_LIMIT_S, time.monotonic() - start))
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
