#!/usr/bin/env python3
"""Build and run the zkml benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/zkbench.exe and the zkml
CLI with dune (the dune cache is disabled, so the build reads and writes
only under _build), then runs one workload with a fresh work directory
under perfbench/.work and a prover pool of width 2. The last line of
standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("prove-inproc", "prove-seg4", "serve-mixed")
EXE = os.path.join("_build", "default", "perfbench", "zkbench.exe")
ZKML = os.path.join("_build", "default", "bin", "zkml_cli.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_group(cmd, env, timeout):
    """Run cmd in its own process group. On exit, timeout or interrupt,
    kill whatever is left of the group (a daemon child, say)."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    finally:
        kill_group(proc.pid)
        proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("lib", "serve", "server.ml"),
                 os.path.join("bin", "zkml_cli.ml")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    work = os.path.join("perfbench", ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    env["XDG_CACHE_HOME"] = os.path.join(work, "xdg")
    for var in ("ZKML_TRACE", "ZKML_METRICS", "ZKML_LOG", "ZKML_SEGMENTS", "ZKML_EVAL"):
        env.pop(var, None)
    env["ZKML_JOBS"] = "2"

    code = run_group(["dune", "build", "--root", ".", "./perfbench/zkbench.exe",
                      "./bin/zkml_cli.exe"], env, BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(env["XDG_CACHE_HOME"])
    env["ZKML_CACHE_DIR"] = os.path.join(work, "cache")
    try:
        code = run_group([EXE, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--work", work, "--zkml", ZKML], env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
