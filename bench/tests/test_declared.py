"""BENCHMARK.json and what the command emits agree, name for name."""

import json
import re
import subprocess
import sys

import pytest

import harness as runner

SPEC = runner.declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(runner.BENCH / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_file_obeys_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_declared_are_the_workloads_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOADS)


@pytest.mark.parametrize("workload", list(runner.WORKLOADS))
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    result = emitted(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_emit_exactly_the_per_layer_metrics_and_cover_them_all():
    want = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    measured = set()
    for workload in runner.WORKLOADS:
        result = emitted(workload, 1)
        assert result["correct"] is True
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
        # so every NOT_MEASURED below means "not exercised", none "broken"
        assert result["metrics"]["trace.probe_errors"]["value"] == 0
        measured |= {
            name for name, metric in result["metrics"].items()
            if metric["value"] != runner.NOT_MEASURED
        }
        assert (runner.OUT / f"trace-{workload}.json").is_file()
    # smoke windows are too short for the tails; everything else is measured
    assert set(want) - measured <= {"e2e.match_p95_ms", "serve.match_p99_ms"}
