"""Serial-equivalence harness for the execution engine.

The engine's contract: for any corpus and any configuration, the
serial, batched-serial, and process-parallel backends return
bit-identical ``DetectionResult`` contents — same ``ScoredPair`` list
(order, scores, labels), same clusters, same dupcluster XML, same
comparison counts.  These tests pin that contract on the paper's
running example and on generated dirty corpora, plus property-style
checks of the batching layer itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
)
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.engine import executor
from repro.engine import (
    ConstantClassifierFactory,
    ExecutionPolicy,
    ParallelClassifier,
    chunked,
)
from repro.eval import build_dataset1, build_dataset2
from repro.framework import (
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    MatchingTuplesClassifier,
    NoPruning,
    ThresholdClassifier,
    od_from_pairs,
)
from repro.core import Source


# ----------------------------------------------------------------------
# ExecutionPolicy
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_defaults_are_serial(self):
        policy = ExecutionPolicy()
        assert policy.backend == "serial"
        assert policy.workers == 1
        assert not policy.parallel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 4, "backend": "process"},
            {"workers": 4, "shard_by": "block"},
            {"workers": 4, "filter_in_workers": False},
            {"workers": 4, "batch_size": 32},
            {"workers": 4, "ingest_workers": 2},
        ],
    )
    def test_removed_keywords_are_rejected(self, kwargs):
        """The worker count alone picks the backend; the shard
        backend's settings, the batch size and the ingest workers went
        before it."""
        with pytest.raises(TypeError):
            ExecutionPolicy(**kwargs)

    def test_backend_is_derived_not_set(self):
        import dataclasses

        assert ExecutionPolicy().backend == "serial"
        assert ExecutionPolicy(workers=4).backend == "process"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().backend = "process"  # type: ignore[misc]

    def test_for_workers(self):
        assert ExecutionPolicy.for_workers(1).backend == "serial"
        four = ExecutionPolicy.for_workers(4)
        assert four.backend == "process"
        assert four == ExecutionPolicy(workers=4)
        assert four.parallel
        auto = ExecutionPolicy.for_workers(0)
        assert auto.workers >= 1

    def test_single_process_worker_is_not_parallel(self):
        assert not ExecutionPolicy(workers=1).parallel
        assert ExecutionPolicy(workers=1).backend == "serial"

    def test_sharded_is_for_workers(self):
        """The removed shard backend's constructor names the process
        policy of the same worker count."""
        policy = ExecutionPolicy.sharded(3, shard_by="object")
        assert policy == ExecutionPolicy.for_workers(3)
        assert policy.backend == "process" and policy.parallel
        assert ExecutionPolicy.sharded(2, filter_in_workers=True) == (
            ExecutionPolicy.for_workers(2)
        )
        assert not ExecutionPolicy.sharded(1).parallel
        assert ExecutionPolicy.sharded(0).workers >= 1

    @pytest.mark.parametrize(
        "kwargs", [{"shard_by": "rows"}, {"filter_in_workers": "yes"}]
    )
    def test_sharded_validates_what_it_drops(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy.sharded(2, **kwargs)


# ----------------------------------------------------------------------
# chunked: the batches ParallelClassifier cuts the pair stream into
# ----------------------------------------------------------------------
class TestChunked:
    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk size"):
            list(chunked([(0, 1)], 0))

    @settings(max_examples=50, deadline=None)
    @given(
        items=st.lists(st.integers(), max_size=60),
        size=st.integers(min_value=1, max_value=9),
    )
    def test_chunked_partitions_losslessly(self, items, size):
        batches = list(chunked(items, size))
        assert [x for batch in batches for x in batch] == items
        assert all(1 <= len(batch) <= size for batch in batches)
        if batches:
            assert all(len(batch) == size for batch in batches[:-1])

    def test_a_run_cuts_its_pairs_at_the_module_constant(self, monkeypatch):
        """``BATCH_SIZE`` is read when a run dispatches, so the
        batch-boundary axes of the parity suites set it per run."""
        seen = []
        real = executor.score_batch

        def spy(batch, *args):
            seen.append(len(batch))
            return real(batch, *args)

        monkeypatch.setattr(executor, "BATCH_SIZE", 3)
        monkeypatch.setattr(executor, "score_batch", spy)
        ods = [od_from_pairs(i, [("x", f"/r/a[{i + 1}]/v[1]")]) for i in range(5)]
        _, compared = ParallelClassifier(MatchingTuplesClassifier()).run(
            ods, NoPruning()
        )
        assert compared == 10
        assert seen == [3, 3, 3, 1]


# ----------------------------------------------------------------------
# Backend equivalence on real corpora
# ----------------------------------------------------------------------
#: ``(workers, batch size)`` per run; the batch size is the executor's
#: module constant, set for the run.
RUNS = (
    (1, executor.BATCH_SIZE),  # classic serial
    (1, 1),  # batched-serial, degenerate batches
    (1, 7),  # batched-serial, ragged tail
    (2, 16),
    (3, 5),
)


def detect_with(dataset, config_factory, run, monkeypatch):
    workers, batch_size = run
    monkeypatch.setattr(executor, "BATCH_SIZE", batch_size)
    config = config_factory()
    config.execution = ExecutionPolicy(workers=workers)
    return DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type, config
    ).detect()


def assert_results_identical(reference, other):
    assert other.pairs == reference.pairs  # order, ids, scores, labels
    assert other.clusters == reference.clusters
    assert other.to_xml() == reference.to_xml()
    assert other.compared_pairs == reference.compared_pairs
    assert other.pruned_object_ids == reference.pruned_object_ids


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def paper_dataset(self):
        from repro.eval.datasets import Dataset

        return Dataset(
            sources=[Source(paper_example_document(), paper_example_schema())],
            mapping=paper_example_mapping(),
            real_world_type="MOVIE",
            description="paper running example",
        )

    @pytest.fixture(scope="class")
    def dirty_cds(self):
        return build_dataset1(base_count=25, seed=7)

    @pytest.fixture(scope="class")
    def dirty_movies(self):
        return build_dataset2(count=20, seed=13)

    def test_paper_example_equivalence(self, paper_dataset, monkeypatch):
        def config():
            return DogmatixConfig(
                heuristic=RDistantDescendants(2),
                theta_tuple=0.55,
                theta_cand=0.55,
                use_object_filter=False,
            )

        reference = detect_with(paper_dataset, config, RUNS[0], monkeypatch)
        assert reference.duplicate_pairs  # the Matrix pair is found
        for run in RUNS[1:]:
            assert_results_identical(
                reference, detect_with(paper_dataset, config, run, monkeypatch)
            )

    def test_dirty_cds_equivalence(self, dirty_cds, monkeypatch):
        def config():
            return DogmatixConfig(heuristic=KClosestDescendants(6))

        reference = detect_with(dirty_cds, config, RUNS[0], monkeypatch)
        assert reference.duplicate_pairs
        for run in RUNS[1:]:
            assert_results_identical(
                reference, detect_with(dirty_cds, config, run, monkeypatch)
            )

    def test_dirty_movies_equivalence(self, dirty_movies, monkeypatch):
        def config():
            return DogmatixConfig(
                heuristic=RDistantDescendants(4), use_object_filter=False
            )

        reference = detect_with(dirty_movies, config, RUNS[0], monkeypatch)
        assert reference.duplicate_pairs
        for run in RUNS[1:]:
            assert_results_identical(
                reference, detect_with(dirty_movies, config, run, monkeypatch)
            )

    def test_possible_band_equivalence(self, dirty_cds, monkeypatch):
        """The C2 band survives the round-trip through workers."""

        def config():
            return DogmatixConfig(
                heuristic=KClosestDescendants(6), possible_threshold=0.30
            )

        reference = detect_with(dirty_cds, config, RUNS[0], monkeypatch)
        assert reference.possible_pairs  # band is actually exercised
        parallel = detect_with(dirty_cds, config, RUNS[3], monkeypatch)
        assert_results_identical(reference, parallel)


# ----------------------------------------------------------------------
# Engine behavior on generic (non-DogmatiX) pipelines
# ----------------------------------------------------------------------
def movie_pipeline(classifier, policy=None, classifier_factory=None):
    return DetectionPipeline(
        CandidateDefinition("MOVIE", ("/moviedoc/movie",)),
        DescriptionDefinition(("./title", "./year", "./actor/name")),
        classifier,
        policy=policy,
        classifier_factory=classifier_factory,
    )


class TestGenericPipelineParallel:
    def test_stateless_classifier_ships_to_workers(self, monkeypatch):
        """Without a factory, a picklable classifier is shipped as-is."""
        monkeypatch.setattr(executor, "BATCH_SIZE", 1)
        document = paper_example_document()
        serial = movie_pipeline(MatchingTuplesClassifier()).run(document)
        parallel = movie_pipeline(
            MatchingTuplesClassifier(),
            policy=ExecutionPolicy(workers=2),
        ).run(document)
        assert parallel.pairs == serial.pairs
        assert parallel.clusters == serial.clusters
        assert parallel.to_xml() == serial.to_xml()

    def test_unpicklable_classifier_falls_back_to_serial(self):
        ods = [
            od_from_pairs(0, [("The Matrix", "/m/movie[1]/title[1]")]),
            od_from_pairs(1, [("The Matrix", "/m/movie[2]/title[1]")]),
            od_from_pairs(2, [("Signs", "/m/movie[3]/title[1]")]),
        ]
        classifier = ThresholdClassifier(
            lambda a, b: 1.0 if a.values() == b.values() else 0.0, 0.5
        )
        engine = ParallelClassifier(
            classifier,
            policy=ExecutionPolicy(workers=2),
        )
        pairs, compared = engine.run(ods, NoPruning())
        assert engine.last_backend == "serial"  # lambda cannot be pickled
        assert compared == 3
        assert [(p.left, p.right) for p in pairs] == [(0, 1)]

    def test_constant_factory_used_when_explicit(self):
        ods = [
            od_from_pairs(0, [("x", "/r/a[1]/v[1]")]),
            od_from_pairs(1, [("x", "/r/a[2]/v[1]")]),
        ]
        classifier = MatchingTuplesClassifier()
        engine = ParallelClassifier(
            classifier,
            policy=ExecutionPolicy(workers=2),
            classifier_factory=ConstantClassifierFactory(classifier),
        )
        pairs, compared = engine.run(ods, NoPruning())
        assert engine.last_backend == "process"
        assert compared == 1
        assert [(p.left, p.right) for p in pairs] == [(0, 1)]


class TestPoolModulesLoadWithTheFirstPool:
    """``concurrent.futures``, ``multiprocessing`` and ``pickle`` cost
    every process ~26 ms to import; only a run that builds a pool pays
    it."""

    def test_serial_entry_points_import_neither_and_a_pool_still_runs(self):
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "import repro.api, repro.ingest, repro.cli\n"
            "pool = ('concurrent.futures', 'multiprocessing', 'pickle')\n"
            "print([m for m in pool if m in sys.modules])\n"
            "from repro.engine import (ConstantClassifierFactory, ExecutionPolicy,\n"
            "                          ParallelClassifier)\n"
            "from repro.framework import (MatchingTuplesClassifier, NoPruning,\n"
            "                             od_from_pairs)\n"
            "ods = [od_from_pairs(i, [('x', f'/r/a[{i + 1}]/v')]) for i in range(4)]\n"
            "classifier = MatchingTuplesClassifier()\n"
            "engine = ParallelClassifier(\n"
            "    classifier, policy=ExecutionPolicy(workers=2),\n"
            "    classifier_factory=ConstantClassifierFactory(classifier))\n"
            "pairs, compared = engine.run(ods, NoPruning())\n"
            "print(engine.last_backend, compared, len(pairs),\n"
            "      all(m in sys.modules for m in pool))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={
                **os.environ,
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "process 6 6 True"]
