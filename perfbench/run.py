#!/usr/bin/env python3
"""Perf ledger entry point.

Builds the perfbench binary against this checkout's own sources (Release,
into .bench_build/perfbench), then runs one workload with it:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads: corpus-embed, sweep-interactive, wire-hot-mix, finetune (see
BENCHMARK.json and perfbench/README.md). The last line of stdout is the
result as one JSON object. Build output goes to stderr. A checkout without
the program's sources fails the build and exits non-zero without a result.

BENCHMARK.json is the one list of metrics and units. The binary prints only
the metrics its workload set; this script checks each against the list for
the run's mode (end_to_end for --trace 0, per_layer for --trace 1) and
reports a listed metric the workload did not set, a layer it does not load,
as 0.
"""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def complete(result, trace):
    """The binary's result with every metric of the run's mode, in
    BENCHMARK.json order; None (after a message) if it set a metric that is
    not listed there or gave one in another unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        if name not in units:
            print(f"perfbench: metric {name} is not listed in BENCHMARK.json",
                  file=sys.stderr)
            return None
        if m["unit"] != units[name]:
            print(f"perfbench: {name} reported in {m['unit']}, "
                  f"BENCHMARK.json says {units[name]}", file=sys.stderr)
            return None
    metrics = {}
    for m in listed:
        metrics[m["name"]] = result["metrics"].get(
            m["name"], {"value": 0.0, "unit": m["unit"]})
    return dict(result, metrics=metrics)


def main():
    build()
    argv = sys.argv[1:]
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    args = [str(BUILD / "perfbench")] + sys.argv[1:] + ["--commit", commit_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # A terminated run stops its workload too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(proc.returncode or 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = complete(json.loads(lines[-1]), trace)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
