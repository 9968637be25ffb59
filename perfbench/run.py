#!/usr/bin/env python3
"""Build the host-performance benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload now_rpc --seed 1 --seconds 10 --trace 0

Every build product, Go cache and result file goes under .bench_build/
at the repository root, so the benchmark reads and writes nothing outside
the checkout. All arguments are passed through to the benchmark binary
(see perfbench/README.md); --workload all runs the three workloads in turn.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "HOME": os.path.join(BUILD, "home"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    exe = os.path.join(BUILD, "perfbench")
    env = go_env()
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [exe, "-repo", ROOT, "-out", os.path.join(BUILD, "results")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
