#!/usr/bin/env python3
"""Self-test of the repo benchmark (perfbench/run.py) at P = 128.

    python3 perfbench/selftest.py

P = 128 is the smallest power of two at which pic_io_resilient_2k's writer
crash (a third into the fault-free makespan) still lands while producers
stream; at P = 64 it lands later and the dump comes up short.

For every workload in BENCHMARK.json and both modes, the run must end with
a well-formed result line carrying exactly the end-to-end (--trace 0) or
per-layer (--trace 1) metrics BENCHMARK.json names, each with its unit,
and every correctness check must pass. perfbench/rationale.json must map
every per-layer metric and workload. Negative case: with --perturb-oracle
the oracle comparison must fail, so check_pass_frac drops below 1.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCS = 128
SEED = 7


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def run(workload, trace, *extra):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--procs", str(PROCS), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    require(proc.returncode == 0,
            f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"result keys {sorted(result)}")
    return result


def expect_metrics(result, entries, label):
    names = sorted(entry["name"] for entry in entries)
    require(sorted(result["metrics"]) == names, f"{label}: metric set differs")
    for entry in entries:
        metric = result["metrics"][entry["name"]]
        require(set(metric) == {"value", "unit"} and metric["unit"] == entry["unit"],
                f"{label}: {entry['name']} is {metric}")
        require(isinstance(metric["value"], (int, float)),
                f"{label}: {entry['name']} has no numeric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as f:
        rationale = json.load(f)
    unmapped = [e["name"] for e in spec["per_layer"]
                if e["name"] not in rationale["per_layer"]]
    require(not unmapped, f"rationale.json misses {unmapped}")
    workloads = [w["name"] for w in spec["workloads"]]
    require(set(workloads) <= set(rationale["workloads"]),
            "rationale.json misses a workload")

    for workload in workloads:
        for trace, entries in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect_metrics(result, entries, label)
            require(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1, f"{label}: checks failed")
            print(f"ok  {label}: {result['attempted']} checks, "
                  f"{len(result['metrics'])} metrics")

    result = run(workloads[0], 0, "--perturb-oracle")
    pass_frac = result["metrics"]["check_pass_frac"]["value"]
    require(result["failed"] > 0 and not result["correct"] and pass_frac < 1,
            "a perturbed oracle went unnoticed")
    print(f"ok  perturbed oracle: {result['failed']} of {result['attempted']} "
          f"checks fail, check_pass_frac {pass_frac:.3f}")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
