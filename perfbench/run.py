#!/usr/bin/env python3
"""Build the repository benchmark from the sources beside it and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rpc_echo --seed 1 --seconds 10 --trace 0

Workloads: rpc_echo, airline_crash, replica_gossip.  The benchmark is an
OCaml executable (perfbench/main.ml) built with dune into _build/ inside
the checkout, with dune's shared cache off so nothing is written outside
it.  Build output goes to stderr; the last line of stdout is the JSON
result.  The exit code is the benchmark's, or non-zero if the build fails
(as it must in a directory without the library sources).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
