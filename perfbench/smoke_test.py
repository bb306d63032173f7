#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny scale, untraced and traced,
and checks that each run prints a result line whose metrics are exactly
the declared ones, each with its declared unit, and whose output checks
passed. Run from the root of the repository:

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: checks failed: {result}")
            want = {m["name"]: m["unit"] for m in table}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    failures.append(f"{where}: {name} = {v!r}")
                elif trace == 0 and v == 0:
                    failures.append(f"{where}: end-to-end {name} is 0")
            print(f"ok {where}: {len(got)} metrics", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
