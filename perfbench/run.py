#!/usr/bin/env python3
"""Build the MoNet benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload channel|pay3|route \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside this checkout (dune's shared
cache off, so nothing is read or written outside it), then runs it with
the same arguments. Its exit code and standard output are the
benchmark's; build output goes to standard error. Exits 2 without
printing a result when the checkout holds no MoNet sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main() -> int:
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no MoNet sources (dune-project, lib/) to build",
              file=sys.stderr)
        return 2
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, "_build", "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
