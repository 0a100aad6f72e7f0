#!/usr/bin/env python3
"""Build schedd and the perfbench driver from this checkout, then run one
benchmark run.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay-exec --seed 1 --seconds 50 --trace 0

Everything the build writes (Go build cache, binaries) and every run's raw
samples go under .bench_build/ in the current directory. The last line of
standard output is the driver's JSON result. Exits non-zero, printing no
result, if either build or the run fails.
"""

import argparse
import os
import subprocess
import sys

# Seconds. A cold build cache compiles the standard library (about a
# minute per build); two builds and the run stay within 900 s.
BUILD_TIMEOUT = 350
RUN_TIMEOUT = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    schedd = os.path.join(bindir, "schedd")
    driver = os.path.join(bindir, "perfbench")
    # Stamp the binaries with the commit only in a git checkout, so that
    # go does not look for one in the directories above.
    vcs = "-buildvcs=" + ("true" if os.path.isdir(os.path.join(root, ".git")) else "false")
    for cwd, out, pkg in ((root, schedd, "./cmd/schedd"), (os.path.join(root, "perfbench"), driver, ".")):
        r = subprocess.run(["go", "build", vcs, "-o", out, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT)
        if r.returncode != 0:
            print(f"perfbench: building {pkg} failed", file=sys.stderr)
            return 1

    r = subprocess.run([driver, "-workload", args.workload, "-seed", str(args.seed),
                        "-seconds", str(args.seconds), "-trace", str(args.trace),
                        "-schedd", schedd, "-out", os.path.join(build, "perfbench")],
                       cwd=root, env=env, timeout=RUN_TIMEOUT)
    return r.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {e}", file=sys.stderr)
        sys.exit(1)
