#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench_serve) for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick]

Run from the repository root. The first run configures and builds the
benchmark with CMake into the directory named by CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The workload's frozen
rates and latency limit come from perfbench/config.json.

Standard output carries the benchmark's report, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. The exit code is 0 only when the run
completed and every response was bit-exact.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository's sources are not next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = [cmake, "--build", build_dir, "--target", "perfbench_serve",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = os.path.join(build_dir, "perfbench_serve")
    if not os.path.isfile(binary):
        fail("the benchmark binary is missing after the build")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs (the self-check in check.py)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        with open(os.path.join(HERE, "config.json")) as f:
            config = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark declaration: {e}")
    wl = config["workloads"].get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--light-rps", repr(wl["light_rps"]),
           "--busy-rps", repr(wl["busy_rps"]),
           "--slo-ms", repr(wl["slo_ms"]),
           "--spans-out", os.path.join(
               spans_dir, f"{args.workload}_seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"the benchmark exited with {proc.returncode} and no result")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is missing or has the wrong unit")
        if not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is not a finite number")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
