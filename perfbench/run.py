#!/usr/bin/env python3
"""Build and run the layered admission benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload city-guard --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is compiled into .bench_build/ (its
build cache, temporary files and binary all stay inside the checkout) and
run with the given arguments. Its last output line is the JSON result;
with --trace 1 its spans are written to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A cold build compiles the standard library into the fresh build cache.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        sys.exit("perfbench: %s is not a checkout of the facs module; "
                 "run from the repository root" % ROOT)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in ("tmp", "spans"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if build.returncode != 0:
        sys.exit("perfbench: build failed with exit code %d" % build.returncode)

    spans = os.path.join(BUILD, "spans", "%s-seed%d.tsv" % (args.workload, args.seed))
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["-spans", spans]
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: run failed: %s" % err)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
