#!/usr/bin/env python3
"""Smoke test of the perf ledger at a tiny size.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second with --size tiny, once
with --trace 0 and once with --trace 1, and checks that the last stdout line
parses as the result object, that it holds exactly the metrics
BENCHMARK.json names for that mode, each with its unit, and that every
output check passed. The figures themselves are not judged. Exits non-zero
on the first violation.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{where}: outputs failed their checks: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"{where}: attempted {result['attempted']!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        sys.exit(f"{where}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        value = got[m["name"]]
        if set(value) != {"value", "unit"} or value["unit"] != m["unit"]:
            sys.exit(f"{where}: {m['name']} printed as {value}")
        if not isinstance(value["value"], (int, float)):
            sys.exit(f"{where}: {m['name']} is not a number")
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} attempted")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)


if __name__ == "__main__":
    main()
