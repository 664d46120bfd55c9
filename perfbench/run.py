#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload coexpr-ooc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds the gsb library and the
gsb_perf program from the checkout's sources (CMake, into $CARGO_TARGET_DIR
or .bench_build), computes the workload's reference outputs in one child
process, measures the workload in a second child process whose peak RSS it
reads from wait4(), and prints every metric with its unit.  The last line
of standard output is the result JSON.  With --trace 1 it makes the traced
pass instead and leaves the Chrome trace and the per-layer self-time table
under .bench_out/.  README.md in this directory explains the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("coexpr-ooc", "myogenic-cliques")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds gsb_perf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "overlap.h")):
        raise RuntimeError("no gsb sources next to perfbench/ (run from a checkout)")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "gsb_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "gsb_perf")


def run_child(argv, timeout, out_path):
    """Runs one child to completion, its stdout into out_path; returns
    (stdout text, rusage of that child alone)."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"gsb_perf {argv[1]} timed out")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    if proc.returncode != 0:
        raise RuntimeError(f"gsb_perf {argv[1]} exited with {proc.returncode}")
    with open(out_path) as out:
        return out.read(), rusage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the benchmark's own tests")
    parser.add_argument("--corrupt", choices=("none", "response", "clique"),
                        default="none",
                        help="corrupt the reference (tests that checks count)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = os.path.join(build_dir, "work", tag)
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--corrupt", args.corrupt]
    ref = os.path.join(work, "reference.txt")
    try:
        started = time.monotonic()
        run_child([binary, "reference", "--ref", ref] + common, 170,
                  os.path.join(work, "reference.out"))
        prefix = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        out, rusage = run_child(
            [binary, "run", "--ref", ref, "--dir", os.path.join(work, "run"),
             "--out", prefix, "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + common,
            175 - (time.monotonic() - started), os.path.join(work, "run.out"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if args.trace == 0:
        # High-water RSS of the process that ran only this workload.
        metrics["peak_rss_mb"] = {"value": rusage.ru_maxrss / 1024.0, "unit": "MB"}
        ordered = {}
        for name in ("setup_s", "pipeline_s", "peak_rss_mb"):
            ordered[name] = metrics.pop(name)
        ordered.update(metrics)
        result["metrics"] = ordered
    else:
        print(f"traced pass: {prefix}.trace.json, {prefix}.selftime.txt")
        with open(prefix + ".selftime.txt") as table:
            sys.stdout.write(table.read())
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
