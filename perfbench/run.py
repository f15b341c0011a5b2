#!/usr/bin/env python3
"""Build the Thistle benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/thistle_bench.exe with dune (build output goes to
stderr), then runs it with the same arguments and passes its output and
exit code through.  Exits non-zero without a result when the sources are
missing or do not build.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGET = "./perfbench/thistle_bench.exe"


def run(cmd, timeout, **kw):
    # The child gets its own process group, so a timeout or a signal to
    # this script stops it and everything it started.
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    for needed in ("dune-project", os.path.join("lib", "core", "optimize.ml")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a Thistle checkout",
                  file=sys.stderr)
            return 2
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    code = run(dune + ["build", "--root", ".", TARGET], BUILD_TIMEOUT_S,
               stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code or 1
    exe = os.path.join("_build", "default", "perfbench", "thistle_bench.exe")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
