#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload vod_batch|live_proc --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The build lands in .bench_build/ there;
compiler output goes to stderr, so the benchmark's last stdout line is
its JSON result. See perfbench/README.md for what is measured.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(ROOT, ".bench_build", "state")


def run_to_stderr(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if run_to_stderr(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return False
    return run_to_stderr(["cmake", "--build", BUILD, "-j",
                          str(os.cpu_count() or 1), "--target", "perfbench",
                          "vbench_worker"]) == 0


def git_describe():
    # Never let git wander into a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(STATE, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
           "--worker-bin", os.path.join(BUILD, "vbench", "rpc",
                                        "vbench_worker"),
           "--state-dir", STATE, "--git", git_describe()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
