#!/usr/bin/env python3
"""Repo benchmark entry point: builds turbo_perfbench and runs one workload.

    python3 perfbench/run.py --workload <serve|ingest|train|cluster> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds the
library and turbo_perfbench under $CARGO_TARGET_DIR (default .bench_build) in
Release mode; later runs rebuild incrementally. The last line of stdout is
the result JSON: {"correct", "attempted", "failed", "metrics"}; the exit
code is non-zero if the build, any correctness check or the run fails.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "ingest", "train", "cluster")
RUN_TIMEOUT_S = 170


def machine_fingerprint():
    """The runner_fingerprint of scripts/check_bench_regression.py."""
    ident = "|".join((platform.machine(), platform.system(),
                      platform.processor() or "unknown-cpu",
                      str(os.cpu_count())))
    return hashlib.sha1(ident.encode()).hexdigest()[:8]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out_dir):
    """Configures (once) and builds turbo_perfbench; build logs go to stderr."""
    if shutil.which("cmake") is None:
        sys.stderr.write("run.py: cmake not found\n")
        return None
    bdir = os.path.join(out_dir, "perfbench")
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", bdir, "--target", "turbo_perfbench",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(bdir, "turbo_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                    help="smoke-test sizes (the benchmark's own tests)")
    ap.add_argument("--break-check", default="",
                    help="perturb the expected value of this check")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: library sources not found at %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    print("# env fingerprint=%s nproc=%d python=%s"
          % (machine_fingerprint(), os.cpu_count() or 0,
             platform.python_version()))
    state_dir = os.path.join(out_dir, "state-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny), "--state_dir", state_dir]
    if args.break_check:
        cmd += ["--break_check", args.break_check]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: workload exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write("run.py: workload printed no result (exit %d)\n"
                         % proc.returncode)
        return proc.returncode or 4
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write("run.py: correctness check failed (exit %d)\n"
                         % proc.returncode)
        print(json.dumps(result))
        return proc.returncode or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
