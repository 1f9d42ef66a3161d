#!/usr/bin/env python3
"""Build and run the SmartCIS benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 42 --seconds 20 --trace 0

The script builds the benchmark (a Go main package in this directory, a
module of its own that uses the repo's packages through a replace
directive) into .bench_build/, keeping the Go build cache, temporary files
and tool state there too, then runs it with the given arguments. The last
line of standard output is the result object; see METRICS.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    """The environment for the go command, with all its state in BUILD."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOFLAGS"] = "-mod=mod"
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOENV"] = "off"
    env["CGO_ENABLED"] = "0"
    return env


def build():
    """Build the benchmark binary; exit 1 if that fails."""
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go command on PATH")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s is not the root of the aspen module" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def main():
    build()
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
