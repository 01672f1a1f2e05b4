"""Measure one point of the benchmark trajectory.

    python3 perfbench/trajectory.py --label NAME

Runs perfbench/run.py untraced RUNS times on every workload, with seeds
FIRST_SEED, FIRST_SEED + 1, ..., then once traced, and writes
perfbench/trajectory/NAME.json.  For each end-to-end metric it records the median of the runs and the spread,
(Q3 - Q1) / median with quartiles from statistics.quantiles(n=4), next to
the metric's bound in BENCHMARK.json.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUNS = 10
FIRST_SEED = 301


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = HERE / "trajectory" / f"{args.label}.json"
    point = {"label": args.label, "runs": RUNS, "workloads": {}}
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    for workload in workloads.WORKLOADS:
        results = [run(workload, seed, 0) for seed in seeds]
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[name] = {"median": med, "spread": (q3 - q1) / med, "bound": bound,
                             "unit": results[0]["metrics"][name]["unit"], "values": values}
            print(f"{workload:14s} {name:16s} median {med:11.5g}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bound}", flush=True)
        traced = run(workload, FIRST_SEED, 1)
        point["workloads"][workload] = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": metrics,
            "per_layer_seed_run": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
