#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload in BENCHMARK.json
at quick size with --trace 0 and --trace 1, and checks that each run is
correct and prints every metric BENCHMARK.json names, with its unit,
both in the final JSON line and on a "metric" line.  Then runs each
workload twice at a held-out seed and checks that the two runs report
identical modeled outputs.  Exits non-zero on the first failure.
"""

import json
import subprocess
import sys

HELD_OUT_SEED = 7


def run(workload, trace, seed=42):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--quick"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(workload, trace, lines, result, wanted):
    where = f"{workload} --trace {trace}"
    if not result["correct"] or result["failed"] != 0:
        failed = [l for l in lines if l.startswith("check FAILED")]
        sys.exit(f"selftest: {where} is not correct: {failed}")
    if result["attempted"] < 1:
        sys.exit(f"selftest: {where} attempted nothing")
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        sys.exit(f"selftest: {where} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        value = got[name]["value"]
        if got[name]["unit"] != unit or printed.get(name) != unit:
            sys.exit(f"selftest: {where}: {name} not printed with unit {unit}")
        if not isinstance(value, (int, float)) or value != value:
            sys.exit(f"selftest: {where}: {name} is not a number: {value!r}")


def modeled_line(lines):
    return next(l for l in lines if l.startswith("modeled: "))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            lines, result = run(name, trace)
            check_metrics(name, trace, lines, result, wanted)
        first, result = run(name, 0, seed=HELD_OUT_SEED)
        check_metrics(name, 0, first, result, bench["end_to_end"])
        second, _ = run(name, 0, seed=HELD_OUT_SEED)
        if modeled_line(first) != modeled_line(second):
            sys.exit(f"selftest: {name} at seed {HELD_OUT_SEED}: two runs "
                     "report different modeled outputs")
        print(f"selftest: {name} ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
