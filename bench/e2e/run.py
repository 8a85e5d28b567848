#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  The benchmark is bench/e2e/e2e.exe, built
with dune against the libraries of the surrounding source tree; build
output goes to standard error, so the last line of standard output is
the result line e2e.exe prints.  The run is pinned to one CPU.  Exits
non-zero when the tree cannot be built or the run finds an incorrect
output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("run.py: no dune project at %s; the benchmark "
                         "builds the library sources of the full tree\n" % ROOT)
        return 2
    # keep every artefact inside the tree: no shared dune cache, and the
    # compilers' temporary files under bench/e2e/out
    tmp = os.path.join(HERE, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "bench/e2e/e2e.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    # run on one CPU: serve-mix's daemon and client domains then share
    # the CPU the speed calibration (calib.ml) measures, and a request
    # never waits for a wake-up on another core
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    exe = os.path.join(ROOT, "_build", "default", "bench", "e2e", "e2e.exe")
    return subprocess.run([exe, "--dir", "bench/e2e"] + sys.argv[1:],
                          cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
