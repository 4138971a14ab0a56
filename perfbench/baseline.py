"""Measure a commit: repeated untraced runs and one traced run per workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Every workload gets RUNS untraced runs, each with its own workload seed
(1..RUNS) and the run length from BENCHMARK.json, then one traced run.
For every end-to-end metric the summary holds the values, their median
and quartiles, and the spread: the distance between the quartiles as a
share of the median.  Takes about RUNS x 40 s per workload, plus a minute
per traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

RUNS = 10


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("details", "provenance"):
            result[key] = json.loads(rest)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in wl.WORKLOADS:
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(bench_once(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  f"failed {runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "details": [r["details"] for r in runs],
        }
        summary.setdefault("provenance", runs[0]["provenance"])
        traced = bench_once(workload, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_source"] = traced["details"]["layer_source"]
        entry["traced_failed"] = traced["failed"]
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"  {workload:15s} {name:12s} median {stats['median']:.5g} "
                  f"spread {stats['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
