"""Every way the worker pool can fail has one defined outcome.

A worker that dies ends a parallel ingest build on the serial path: the
serial result, bit for bit, and a recorded reason.  A task that raises
an ordinary exception re-raises it with its own type.  The parent runs
at most one window of tasks ahead of the results, which come back in
task order, and the serial entry paths import no pool module.  Each
case runs in a child interpreter under a hard timeout, so a pool that
waits for ever on a dead worker fails here instead of hanging the suite.

The faults and tasks are the module-level functions below.  The child
imports this module, installs a fault over a worker function of the
code under test, and the forked workers run it; pickle ships them by
reference, so they must stay at module level.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The worker functions the faults replace, by name.
ORIGINAL: dict = {}


def die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def dying_chunk(task):
    if task[2] > 0:  # a unit's second chunk
        die()
    return ORIGINAL["chunk"](task)


def square(number):
    return number * number


class Refusal(Exception):
    """A task's own error type."""


def refuse(task):
    raise Refusal(f"task {task}")


def pair_batches(pulled: list):
    """The 4 950 pairs of 100 ids in batches of 10, counting the pairs
    pulled into ``pulled[0]``."""
    batch = []
    for left in range(100):
        for right in range(left + 1, 100):
            pulled[0] += 1
            batch.append((left, right))
            if len(batch) == 10:
                yield batch
                batch = []


def even_pairs(batch):
    """The pairs of a batch whose ids sum to an even number."""
    return [pair for pair in batch if sum(pair) % 2 == 0]


# ----------------------------------------------------------------------
# What runs in the child
# ----------------------------------------------------------------------
def dataset():
    from repro.eval import build_dataset1

    return build_dataset1(base_count=12, seed=7)


def install(module, name: str, key: str, fault) -> None:
    ORIGINAL[key] = getattr(module, name)
    setattr(module, name, fault)


def task_raises() -> dict:
    """A pool whose every task raises :class:`Refusal`."""
    from repro.engine.pool import PoolBroken, open_pool

    try:
        with open_pool(2) as pool:
            list(pool.map(refuse, range(20)))
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return {
            "type": type(error).__name__,
            "raised_in_worker": type(error.__cause__).__name__
            == "_RemoteTraceback",
            "broken": isinstance(error, PoolBroken),
        }
    return {"type": None}


def ingest_chunk() -> dict:
    """A ``ParallelIngestor(2)`` build whose worker dies in a chunk,
    against a serial twin."""
    from repro.api import Corpus, DetectionSession
    from repro.ingest import ParallelIngestor, builder

    install(builder, "_ingest_chunk", "chunk", dying_chunk)
    data = dataset()
    ingestor = ParallelIngestor(2)
    ods, index = ingestor.build(
        Corpus(data.sources), data.mapping, data.real_world_type
    )
    session = DetectionSession(
        data.sources, data.mapping, data.real_world_type, ods=ods
    )
    twin = DetectionSession(data.sources, data.mapping, data.real_world_type)
    return {
        "report": {
            "backend": ingestor.last_report.backend,
            "reason": ingestor.last_report.reason,
        },
        "ods": [(od.object_id, od.tuples) for od in ods]
        == [(od.object_id, od.tuples) for od in twin.ods],
        "index": index.statistics() == twin.index.statistics(),
        "identical": session.detect().identical_to(twin.detect()),
    }


def bounded_map() -> dict:
    """How far the parent runs ahead of the results on a 2 000-task stream."""
    from repro.engine.pool import open_pool

    taken: list = []

    def stream():
        for task in range(2000):
            taken.append(task)
            yield task

    ahead = 0
    results = []
    with open_pool(2) as pool:
        for handed, result in enumerate(pool.map(square, stream())):
            ahead = max(ahead, len(taken) - handed)
            results.append(result)
    return {
        "ahead": ahead,
        "window": pool.window,
        "ordered": results == [task * task for task in range(2000)],
    }


def bounded_pair_stream() -> dict:
    """A map over 495 lazily cut batches of pairs: how many batches the
    parent pulls ahead of the results it has taken."""
    from repro.engine.pool import open_pool

    pulled = [0]
    ahead = 0
    kept = []
    with open_pool(2) as pool:
        for handed, result in enumerate(
            pool.map(even_pairs, pair_batches(pulled))
        ):
            ahead = max(ahead, pulled[0] // 10 - handed)
            kept.extend(result)
    serial = [pair for batch in pair_batches([0]) for pair in even_pairs(batch)]
    return {
        "ahead": ahead,
        "window": pool.window,
        "batches": handed + 1,
        "identical": kept == serial and pulled[0] == 4950,
    }


# ----------------------------------------------------------------------
# The tests
# ----------------------------------------------------------------------
def run_case(case: str, *args: str) -> dict:
    tests = str(Path(__file__).parent)
    src = str(Path(repro.__file__).parents[1])
    code = (
        "import json, sys, test_engine_pool as case\n"
        "print(json.dumps(getattr(case, sys.argv[1])(*sys.argv[2:])))\n"
    )
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("PYTHONPATH")
    }
    env["PYTHONPATH"] = os.pathsep.join([src, tests])
    done = subprocess.run(
        [sys.executable, "-c", code, case, *args],
        env=env, capture_output=True, text=True, timeout=90,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


BROKEN = "a pool worker died or failed to start"


def test_a_worker_killed_in_an_ingest_chunk_ends_on_the_serial_build():
    outcome = run_case("ingest_chunk")
    assert outcome["report"] == {"backend": "serial", "reason": BROKEN}
    assert outcome["ods"] and outcome["index"] and outcome["identical"]


def test_a_task_exception_keeps_its_type():
    # Not PoolBroken: a caller's serial fallback is for dead workers.
    assert run_case("task_raises") == {
        "type": "Refusal",
        "raised_in_worker": True,
        "broken": False,
    }


def test_the_parent_stays_a_bounded_window_ahead_of_the_workers():
    outcome = run_case("bounded_map")
    assert outcome["window"] == 4
    # the next task is submitted before a result is handed out
    assert outcome["ahead"] <= outcome["window"] + 1
    assert outcome["ordered"]


def test_a_process_run_enumerates_a_bounded_window_of_batches_ahead():
    outcome = run_case("bounded_pair_stream")
    assert outcome["batches"] == 495
    assert outcome["ahead"] <= outcome["window"] + 1
    assert outcome["identical"]


class TestPoolModulesLoadWithTheFirstPool:
    """``concurrent.futures``, ``multiprocessing`` and ``pickle`` cost
    every process ~26 ms to import; only a run that builds a pool pays
    it."""

    def test_serial_entry_points_import_neither_and_a_pool_still_runs(self):
        code = (
            "import sys\n"
            "import repro.api, repro.ingest, repro.cli\n"
            "pool = ('concurrent.futures', 'multiprocessing', 'pickle')\n"
            "print([m for m in pool if m in sys.modules])\n"
            "from repro.engine.pool import open_pool\n"
            "with open_pool(2) as workers:\n"
            "    print(list(workers.map(abs, [-3, 1, -2])),\n"
            "          all(m in sys.modules for m in pool))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=90,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[3, 1, 2] True"]
