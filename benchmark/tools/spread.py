#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread the way the driver does.

Runs every workload ten times, each time with another seed, and prints for
each end-to-end metric the distance between the first and third quartile of
its ten values (statistics.quantiles(values, n=4)) as a share of their
median, next to the bound BENCHMARK.json fixes. A spread above a third of
its bound is marked.

    python3 benchmark/tools/spread.py <focus-bench binary> [first_seed] [runs]

Run it from the repository root on an otherwise idle machine.
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    binary = sys.argv[1]
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    for workload in [w["name"] for w in manifest["workloads"]]:
        values = {name: [] for name in bounds}
        started = time.time()
        for seed in range(first_seed, first_seed + runs):
            out = subprocess.run(
                [binary, "bench", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {runs} runs in {time.time() - started:.0f} s")
        for name, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<16} median {q2:>12.4f}  q1 {q1:>12.4f}  q3 {q3:>12.4f}"
                  f"  min {min(values[name]):>12.4f}  max {max(values[name]):>12.4f}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
