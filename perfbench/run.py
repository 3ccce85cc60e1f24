#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the perfbench binary. Its last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Process knobs that change the simulation kernel, its threads or the
scheduler are removed from the environment so every measured run uses
the defaults. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["fig-sim", "tree-setup", "serve-mix", "serve-fleet"]
PINNED_KNOBS = ["TTA_SIM_KERNEL", "TTA_SIM_THREADS", "TTA_SIM_EPOCH",
                "TTA_SIM_SPIN", "TTA_SCHED"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (first time) and build; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                out.flush()
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build failed ({rc}): {' '.join(cmd)}")
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes, for the benchmark's own test")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        return 1

    env = dict(os.environ)
    for knob in PINNED_KNOBS:
        if env.pop(knob, None) is not None:
            log(f"ignoring {knob} from the environment")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", spans_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited {proc.returncode} without a result")
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
