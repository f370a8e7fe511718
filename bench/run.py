#!/usr/bin/env python3
"""The benchmark of record: one command, five workloads.

    python3 bench/run.py                  # every workload; table + bench/out/results.json
    python3 bench/run.py --trace 1        # ... plus the traced run of each
    python3 bench/run.py --smoke          # tiny sizes, every check, < 30 s
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric names, units and bounds live in ``BENCHMARK.json``
at the root of the repository; ``bench/README.md`` says what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from batch import run_batch  # noqa: E402
from harness import (  # noqa: E402
    DEFAULT_SEED, NOT_MEASURED, OUT, ROOT, SRC, WORKLOADS, Run, declared,
)
from opening import run_open  # noqa: E402
from serving import run_serve_mixed, run_serve_read  # noqa: E402

RUNNERS = {
    "batch": run_batch,
    "open": run_open,
    "serve_read": run_serve_read,
    "serve_mixed": run_serve_mixed,
}


def execute(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    run = Run(WORKLOADS[workload], seed, seconds, trace, smoke)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        RUNNERS[run.workload.kind](run)
        if trace:
            run.metrics["e2e.failed_share"] = run.failed / max(run.attempted, 1)
            # a failed probe reads like a skipped one on the result line
            run.metrics["trace.probe_errors"] = len(run.probe_errors)
            write_trace(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    return run


def write_trace(run: Run) -> None:
    """The runner's spans (children, requests) and each probe child's."""
    trace = run.tracer.to_dict()
    trace["children"] = run.child_traces
    trace["probe_errors"] = run.probe_errors
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{run.workload.name}.json", "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")


def result_metrics(run: Run, spec: dict) -> dict:
    """Exactly the declared metrics of this kind of run, each a number."""
    section = spec["per_layer"] if run.trace else spec["end_to_end"]
    out = {}
    for entry in section:
        value = run.metrics.get(entry["name"])
        out[entry["name"]] = {
            "value": NOT_MEASURED if value is None else value,
            "unit": entry["unit"],
        }
    return out


def print_run(run: Run, spec: dict) -> None:
    kind = "per-layer (traced)" if run.trace else "end-to-end"
    print(f"== {run.workload.name}  seed={run.seed}  {kind}")
    for name, metric in result_metrics(run, spec).items():
        value = run.metrics.get(name)
        shown = "not measured here" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>18} {metric['unit']}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    for error in run.probe_errors:
        print(f"  probe error ({error['probe']}): {error['error']}")


def host_record() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        # uncommitted changes: the sha is the parent of what was measured
        "git_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": cores,
        "load_avg_1m": load,
        # a busier host than it has cores: the timings are not comparable
        "noisy_host": load > cores,
    }


def run_record(run: Run) -> dict:
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "traced": run.trace,
        "smoke": run.smoke,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": run.metrics,
        "sizes": run.details,
        "probe_errors": run.probe_errors,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: "
                             "run_seconds of BENCHMARK.json; 3 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = declared()
    seconds = args.seconds
    if seconds is None:
        seconds = 3 if args.smoke else spec["run_seconds"]

    host = host_record()
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (bool(args.trace),) if args.workload else (
        (False, True) if args.trace else (False,)
    )
    runs = []
    for name in names:
        for traced in modes:
            run = execute(name, args.seed, seconds, traced, args.smoke)
            print_run(run, spec)
            runs.append(run)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.json", "w", encoding="utf-8") as handle:
        json.dump({"host": host, "runs": [run_record(run) for run in runs]},
                  handle, indent=1)
        handle.write("\n")
    if host["noisy_host"]:
        print(f"noisy_host: load average {host['load_avg_1m']:.2f} exceeds "
              f"{host['nproc']} cores; timings are not comparable")
    failed = sum(run.failed for run in runs)
    if args.workload:
        metrics = result_metrics(runs[0], spec)
    else:  # several runs on one line: names carry the workload
        metrics = {
            f"{run.workload.name}{'.traced' if run.trace else ''}.{name}": metric
            for run in runs
            for name, metric in result_metrics(run, spec).items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
