"""Run every workload over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/reference.py

For every workload in BENCHMARK.json it runs perfbench/run.py for the
file's ``run_seconds``: with ``--trace 0`` once per seed 1-10, then with
``--trace 1`` on seed 1, one run at a time. Per metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, plus the trials attempted and failed. Raw results
go to perfbench/out/reference.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10          # untraced runs per workload, seeds 1..RUNS
TRACED_RUNS = 1    # traced runs per workload, seeds 1..TRACED_RUNS


def run(name, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace}: exit {proc.returncode}:"
                         f" {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(name, trace, runs):
    print(f"{name} --trace {trace}: {len(runs)} runs, attempted"
          f" {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)},"
          f" all correct {all(r['correct'] for r in runs)}")
    for metric, first in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        line = f"  {metric:44s} {med:12.6g} {first['unit']:10s}"
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
        print(line, flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    raw = {}
    for name in (w["name"] for w in bench["workloads"]):
        for trace, count in ((0, RUNS), (1, TRACED_RUNS)):
            runs = [run(name, seed, trace, bench["run_seconds"]) for seed in range(1, count + 1)]
            raw[f"{name} --trace {trace}"] = runs
            summarise(name, trace, runs)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)


if __name__ == "__main__":
    main()
