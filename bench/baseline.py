#!/usr/bin/env python3
"""Record a baseline the way the benchmark is accepted.

    python3 bench/baseline.py --out bench/results/BENCH_1.json

For each workload: two independent sets of ten untraced runs, each run
with another seed, through the same command the driver uses.  Per set
and end-to-end metric the file holds the ten values, their median and
their spread (interquartile distance as a share of the median); per
metric it holds whether both spreads stay within the bound — ``setup_s``
too, which the driver lets off that test — and whether the second set's
median is worse than the first's by more than the bound.  One traced run per workload at the
default seed adds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from harness import DEFAULT_SEED, OUT, WORKLOADS, declared  # noqa: E402
from run import host_record  # noqa: E402
from stats import spread  # noqa: E402

#: Runs per set, each with another seed: what the driver makes.
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    with open(OUT / "results.json", encoding="utf-8") as handle:
        result["sizes"] = json.load(handle)["runs"][0]["sizes"]
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = declared()
    seconds = spec["run_seconds"]
    record = {"host": host_record(), "run_seconds": seconds, "workloads": {}}
    accepted = True
    for workload in WORKLOADS:
        sets = []
        for first_seed in (1, 101):
            runs = [
                one_run(workload, seed, seconds, 0)
                for seed in range(first_seed, first_seed + RUNS)
            ]
            sets.append(runs)
            print(f"{workload}: set from seed {first_seed} done, "
                  f"{sum(run['wall_s'] for run in runs):.0f} s", flush=True)
        metrics = {}
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            values = [
                [run["metrics"][name]["value"] for run in runs] for runs in sets
            ]
            medians = [median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(medians[0], medians[1], entry["better"])
            steady = max(spreads) <= bound
            metrics[name] = {
                "unit": entry["unit"],
                "bound": bound,
                "values": values,
                "medians": medians,
                "spreads": spreads,
                "second_worse_by": drift,
                "holds": steady and drift <= bound,
            }
            accepted = accepted and metrics[name]["holds"]
            print(f"  {name:<14} medians {medians[0]:.5g} / {medians[1]:.5g} "
                  f"{entry['unit']}, spreads {spreads[0]:.3f} / {spreads[1]:.3f}, "
                  f"bound {bound}, {'holds' if metrics[name]['holds'] else 'FAILS'}",
                  flush=True)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "seeds": [[run["seed"] for run in runs] for runs in sets],
            "run_wall_s": [[run["wall_s"] for run in runs] for runs in sets],
            "attempted": [[run["attempted"] for run in runs] for runs in sets],
            "failed": [[run["failed"] for run in runs] for runs in sets],
            "sizes": [[run["sizes"] for run in runs] for runs in sets],
        }
        traced = one_run(workload, DEFAULT_SEED, seconds, 1)
        record["workloads"][workload]["per_layer"] = {
            name: metric["value"] for name, metric in traced["metrics"].items()
        }
        record["workloads"][workload]["traced_wall_s"] = traced["wall_s"]
    record["holds"] = accepted
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
