#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <jacobi3d|msg_mix|lifecycle> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench
(an optimized, standalone build of ../src plus the benchmark driver). The
last line of standard output is the result object; see README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
# Environment variables that re-arm runtime modes suite-wide. The benchmark
# pins every option explicitly and drops these from the child's environment.
IGNORED_ENV = ("APV_CHECK_MODE", "APV_SCHED_PREEMPT", "APV_SCHED_STEAL",
               "APV_TRANSPORT")


def build(build_dir):
    if not os.path.isfile(os.path.join(SRC, "mpi", "runtime.hpp")):
        sys.exit(f"runtime sources not found at {SRC}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "apv_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["jacobi3d", "msg_mix", "lifecycle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # build or benchmark child instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build(os.path.join(os.getcwd(), ".bench_build", "perfbench"))
    env = dict(os.environ)
    for var in IGNORED_ENV:
        if env.pop(var, None) is not None:
            print(f"# ignoring {var} from the environment", file=sys.stderr)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("malformed result line")


if __name__ == "__main__":
    main()
