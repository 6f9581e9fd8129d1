#!/usr/bin/env python3
"""Self-check of the serving benchmark.

    python3 perfbench/check.py

Run from the repository root. Checks that perfbench/config.json covers every
workload of BENCHMARK.json and maps every per-layer metric to the end-to-end
metrics and workloads it should move, then runs every workload in quick mode
with --trace 0 and --trace 1 and checks that the last output line carries
exactly the declared metrics, each with its declared unit, and a correct
run. Exits 1 on the first list of problems, 0 when all hold.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_declarations(declared, config):
    problems = []
    workloads = {w["name"] for w in declared["workloads"]}
    if workloads != set(config["workloads"]):
        problems.append("config.json and BENCHMARK.json name different "
                        "workloads")
    e2e = {m["name"] for m in declared["end_to_end"]}
    moves = config["per_layer"]
    for m in declared["per_layer"]:
        entry = moves.get(m["name"])
        if entry is None:
            problems.append(f"{m['name']}: no entry in config.json per_layer")
            continue
        for move in entry["moves"]:
            if move["workload"] not in workloads:
                problems.append(f"{m['name']}: unknown workload "
                                f"{move['workload']}")
            for target in move["metrics"]:
                if target not in e2e:
                    problems.append(f"{m['name']}: unknown end-to-end metric "
                                    f"{target}")
    extra = set(moves) - {m["name"] for m in declared["per_layer"]}
    if extra:
        problems.append(f"config.json maps undeclared metrics: {sorted(extra)}")
    return problems


def check_run(declared, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "3", "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exited with {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{tag}: the last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{tag}: not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{tag}: attempted is not a positive whole number")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{tag}: failed is not a whole number")
    wanted = {m["name"]: m["unit"]
              for m in declared["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{tag}: metrics differ from the declaration: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{tag}: {name} has unit {m.get('unit')}, "
                            f"declared {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{tag}: {name} is not a finite number")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    problems = check_declarations(declared, config)
    for w in declared["workloads"]:
        for trace in (0, 1):
            found = check_run(declared, w["name"], trace)
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(f"problem: {p}")
    print("perfbench check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
