#!/usr/bin/env python3
"""Build and run the elastichtap end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload htap-adaptive --seed 1 --seconds 20 --trace 0

It builds the benchmark (a Go module of its own in this directory that
uses the repository's code through a replace directive) into
.bench_build/, with the Go build cache there too, then runs it with the
given arguments. Scratch WAL and checkpoint files go under
.bench_build/perfbench/ and are removed when the run ends. The last line
of standard output is the run's JSON result. See README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(".bench_build")
WORK = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in (WORK, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(WORK, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    data = os.path.join(WORK, "data-%d" % os.getpid())
    spans = os.path.join(WORK, "spans.tsv")
    try:
        proc = subprocess.run([binary, "--dir", data, "--spans", spans] + sys.argv[1:])
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
