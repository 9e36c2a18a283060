#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload analyze|simulate|execute|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds bench.exe and ndsim.exe with dune
into .bench_build (no dune cache, nothing written outside the checkout),
then runs the benchmark and passes its output through; the last line of
stdout is the JSON result.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def kill_group(pgid):
    """SIGKILL every process left in the group, then wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group and return its exit code.  Kill
    whatever is left of the group when it ends (a server the benchmark
    failed to stop), or the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        die("%s timed out after %ds" % (cmd[0], timeout))
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    kill_group(proc.pid)
    return code


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["analyze", "simulate", "execute", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            die("run from the repository root: %s is missing" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(os.getcwd(), BUILD_DIR, "xdg-cache"))
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
             "perfbench/bench.exe", "bin/ndsim.exe"]
    # build output goes to stderr so stdout ends with the result line
    if run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        die("build failed")

    exe = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(exe, "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--ndsim", os.path.join(exe, "bin", "ndsim.exe"),
           "--workdir", BUILD_DIR, "--git-rev", git_rev()]
    sys.stdout.flush()
    sys.exit(run_group(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
