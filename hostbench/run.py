#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run one workload.

Usage, from the repository root:

    python3 hostbench/run.py --workload train-seq-sync --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds hostbench/ (which compiles ../src)
into $CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build.  Build output goes to stderr.  The benchmark's own report goes to
stdout; its last line is one JSON object with the keys correct, attempted,
failed and metrics.  This script checks that the metric names are exactly
the ones BENCHMARK.json lists for the chosen --trace mode and exits non-zero
on any build failure, failed check or malformed result.

Extra flags (--scale, --corrupt, --out) are passed to the benchmark binary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"hostbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) are missing; nothing to build")
        return None
    if not os.path.isfile(os.path.join(ROOT, "bench", "harness.hpp")):
        log("bench/harness.hpp is missing; nothing to build")
        return None
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(cmake_dir, "hostbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    """Returns an error string, or None if the result line is well-formed."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(res)}"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a positive integer"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {wrong}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 1
    out_dir = os.path.join(build_root, "hostbench-out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir] + extra
    # Scratch disks stay inside the checkout.
    env = dict(os.environ, PDC_SCRATCH_ROOT=out_dir)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1]:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with status {proc.returncode}")
        return 1
    err = validate(lines[-1], args.trace == 1)
    if err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(err)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
