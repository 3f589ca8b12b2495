#!/usr/bin/env python3
"""Seconds-long smoke of every workload in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Each workload runs once untraced and once traced on a small lake
(--scale 0.1, --seconds 1). The check: the run exits 0, its last stdout
line is the result object with exactly the keys correct/attempted/failed/
metrics, every metric BENCHMARK.json names for that mode is printed with its
unit and nothing else is, no answer was wrong or failed, and the run context
was printed. Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTEXT_KEYS = {"nproc", "hardware_concurrency", "workers", "run_slots",
                "io_threads", "scale", "seed", "time_scale", "build_type"}


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", "0.1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return f"{label}: exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0:
        return f"{label}: correct={result['correct']} failed={result['failed']}"
    if result["attempted"] < 1:
        return f"{label}: nothing attempted"
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        return f"{label}: metrics/units differ: want {units}, got {got}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"{label}: {name} has no numeric value"
    context = [l for l in lines if l.startswith("context: ")]
    if not context:
        return f"{label}: no context line"
    missing = CONTEXT_KEYS - set(json.loads(context[0][len("context: "):]))
    if missing:
        return f"{label}: context lacks {sorted(missing)}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            error = check_run(spec, workload, trace)
            if error:
                print(f"smoke FAILED: {error}")
                return 1
            print(f"smoke ok: {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
