"""Every way the worker pool can fail has one defined outcome.

A worker that dies, or a classifier factory that raises inside the
worker's initializer, ends the run on the serial path: the serial
result, bit for bit, and a recorded reason.  A task that raises an
ordinary exception re-raises it with its own type.  Each case runs in a
child interpreter under a hard timeout, so a pool that waits for ever on
a dead worker fails here instead of hanging the suite.

The faults are the module-level functions below.  The child imports
this module, installs one over a worker function of the code under test
(or over the classifier factory), and the forked workers run it; pickle
ships them by reference, so they must stay at module level.
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

#: The child's own pid; a forked worker inherits it and differs from it.
PARENT = os.getpid()

#: The worker functions the faults replace, by name.
ORIGINAL: dict = {}


def in_worker() -> bool:
    return os.getpid() != PARENT


def die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def dying_batch(batch):
    if any(3 in pair for pair in batch):
        die()
    return ORIGINAL["batch"](batch)


def dying_chunk(task):
    if task[2] > 0:  # a unit's second chunk
        die()
    return ORIGINAL["chunk"](task)


def raising_factory(self, ods):
    raise RuntimeError("this classifier factory cannot build in a worker")


def refusing_factory(self, ods):
    return RefusingInWorkers()


def square(number):
    return number * number


class EveryOtherPair:
    """Labels a pair a duplicate when its ids sum to an even number."""

    def classify(self, od_i, od_j):
        return "C1" if (od_i.object_id + od_j.object_id) % 2 == 0 else "C0"


class Refusal(Exception):
    """A classifier's own error type."""


class RefusingInWorkers(EveryOtherPair):
    """Raises :class:`Refusal` on every pair it meets in a worker."""

    def classify(self, od_i, od_j):
        if in_worker():
            raise Refusal(f"pair ({od_i.object_id}, {od_j.object_id})")
        return super().classify(od_i, od_j)


# ----------------------------------------------------------------------
# What runs in the child
# ----------------------------------------------------------------------
def dataset():
    from repro.eval import build_dataset1

    return build_dataset1(base_count=12, seed=7)


def install(module, name: str, key: str, fault) -> None:
    ORIGINAL[key] = getattr(module, name)
    setattr(module, name, fault)


def recorded_engines() -> list:
    """Every :class:`ParallelClassifier` the pipeline builds from now on."""
    from repro.engine.executor import ParallelClassifier
    from repro.framework import pipeline

    engines: list = []

    class Recorded(ParallelClassifier):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    pipeline.ParallelClassifier = Recorded
    return engines


def detect_outcome(policy, fault=None) -> dict:
    """One ``detect()`` under ``policy`` with ``fault`` installed, against
    a serial twin."""
    from repro.api import DetectionSession
    from repro.core import DogmatixConfig

    data = dataset()
    twin = DetectionSession(data.sources, data.mapping, data.real_world_type)
    reference = twin.detect()
    session = DetectionSession(
        data.sources, data.mapping, data.real_world_type, DogmatixConfig()
    )
    if fault is not None:
        fault()
    engines = recorded_engines()
    result = session.detect(policy=policy)
    (engine,) = engines
    decisions = session.object_filter.decisions
    return {
        "backend": engine.last_backend,
        "reason": engine.last_reason,
        "identical": result.identical_to(reference),
        "xml": result.to_xml() == reference.to_xml(),
        "pruned": result.pruned_object_ids == reference.pruned_object_ids,
        "decisions": decisions == twin.object_filter.decisions,
        "one_per_object": len(decisions) == len(session.ods),
        "pruned_count": [
            session.object_filter.pruned_count,
            twin.object_filter.pruned_count,
        ],
    }


def process_batch() -> dict:
    from repro.engine import ExecutionPolicy
    from repro.engine import executor

    executor.BATCH_SIZE = 8
    return detect_outcome(
        ExecutionPolicy(workers=2),
        lambda: install(executor, "_score_batch_in_worker", "batch", dying_batch),
    )


def raising_initializer() -> dict:
    from repro.core.dogmatix import DogmatixClassifierFactory
    from repro.engine import ExecutionPolicy
    from repro.engine import executor

    executor.BATCH_SIZE = 8
    return detect_outcome(
        ExecutionPolicy(workers=2),
        lambda: setattr(DogmatixClassifierFactory, "__call__", raising_factory),
    )


def batch_raises() -> dict:
    """A ``process`` detect whose classifier raises inside a worker batch."""
    from repro.api import DetectionSession
    from repro.core.dogmatix import DogmatixClassifierFactory
    from repro.engine import ExecutionPolicy
    from repro.engine import executor

    executor.BATCH_SIZE = 8
    data = dataset()
    session = DetectionSession(data.sources, data.mapping, data.real_world_type)
    DogmatixClassifierFactory.__call__ = refusing_factory
    engines = recorded_engines()
    try:
        session.detect(policy=ExecutionPolicy(workers=2))
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        (engine,) = engines
        return {
            "type": type(error).__name__,
            "raised_in_worker": type(error.__cause__).__name__
            == "_RemoteTraceback",
            "backend": engine.last_backend,
            "reason": engine.last_reason,
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
    """A ``process`` run over 4 950 pairs in 495 batches of 10: how many
    batches the parent enumerates ahead of the results it has taken."""
    from repro.engine import ExecutionPolicy
    from repro.engine import executor
    from repro.engine import pool as pool_module
    from repro.engine.executor import ParallelClassifier
    from repro.framework.od import ObjectDescription
    from repro.framework.pruning import NoPruning

    ods = [ObjectDescription(number, (), None) for number in range(100)]
    pulled = [0]
    handed = [0]
    ahead = [0]

    class CountedPairs(NoPruning):
        def pairs(self, ods):
            for pair in super().pairs(ods):
                pulled[0] += 1
                yield pair

    plain_map = pool_module.WorkerPool.map

    def observed_map(self, function, tasks):
        for result in plain_map(self, function, tasks):
            ahead[0] = max(ahead[0], pulled[0] // 10 - handed[0])
            handed[0] += 1
            yield result

    pool_module.WorkerPool.map = observed_map
    executor.BATCH_SIZE = 10
    engine = ParallelClassifier(EveryOtherPair(), ExecutionPolicy(workers=2))
    pairs, compared = engine.run(ods, CountedPairs())
    serial, serial_compared = ParallelClassifier(EveryOtherPair()).run(
        ods, NoPruning()
    )
    return {
        "backend": engine.last_backend,
        "ahead": ahead[0],
        "batches": handed[0],
        "identical": pairs == serial and compared == serial_compared == 4950,
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


@pytest.mark.parametrize(
    "case",
    ["process_batch", "raising_initializer"],
)
def test_a_broken_detect_pool_ends_on_the_serial_result(case):
    outcome = run_case(case)
    assert outcome["backend"] == "serial"
    assert outcome["reason"] == BROKEN
    assert outcome["identical"] and outcome["xml"] and outcome["pruned"]
    assert outcome["decisions"] and outcome["one_per_object"]
    count, twin_count = outcome["pruned_count"]
    assert count == twin_count


def test_a_worker_killed_in_an_ingest_chunk_ends_on_the_serial_build():
    outcome = run_case("ingest_chunk")
    assert outcome["report"] == {"backend": "serial", "reason": BROKEN}
    assert outcome["ods"] and outcome["index"] and outcome["identical"]


def test_a_task_exception_keeps_its_type():
    # Not PoolBroken, and not swallowed by the serial fallback (which
    # runs in the parent, where the classifier would not raise).
    assert run_case("batch_raises") == {
        "type": "Refusal",
        "raised_in_worker": True,
        "backend": "process",
        "reason": None,
    }


def test_the_parent_stays_a_bounded_window_ahead_of_the_workers():
    outcome = run_case("bounded_map")
    assert outcome["window"] == 4
    # the next task is submitted before a result is handed out
    assert outcome["ahead"] <= outcome["window"] + 1
    assert outcome["ordered"]


def test_a_process_run_enumerates_a_bounded_window_of_batches_ahead():
    outcome = run_case("bounded_pair_stream")
    assert outcome["backend"] == "process"
    assert outcome["batches"] == 495
    assert outcome["ahead"] <= 4 + 1
    assert outcome["identical"]
