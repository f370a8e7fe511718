"""Randomized serial-equivalence fuzz harness for the process backend.

The engine's contract: for any corpus, any blocking structure, any
worker count and any batch size, fanning classification out over the
worker pool must produce a bit-identical ``DetectionResult`` — same
``ScoredPair`` list, same clusters, same dupcluster XML, same
comparison count, same pruned ids — as the serial backend.

These tests pin that on seeded-random corpora sweeping object counts,
duplicate rates, and pathological block-size distributions: one giant
block, all-singleton blocks, objects with empty descriptions, and
zipf-skewed blocks.  Two fixed seeds keep the sweep deterministic;
each ``(seed, shape, run)`` is its own test, so a failure names the
worker count and batch size that diverged.
"""

from __future__ import annotations

import random

import pytest

from repro.api import DetectionSession
from repro.core import DogmatixConfig
from repro.engine import ExecutionPolicy, executor
from repro.framework import TypeMapping, od_from_pairs

SEEDS = (101, 202)

#: Corpus shapes the generator can produce (block-size pathologies).
SHAPES = ("uniform", "giant", "singleton", "empty", "skewed", "dupes")

KINDS = ("title", "artist", "year")


def random_corpus(seed: int, shape: str, count: int = 36):
    """A seeded-random OD instance with a controlled block structure."""
    rng = random.Random(f"{seed}:{shape}")
    alphabet = "abcdefgh"

    def word(length: int = 8) -> str:
        return "".join(rng.choice(alphabet) for _ in range(length))

    def typo(value: str) -> str:
        index = rng.randrange(len(value))
        return value[:index] + rng.choice(alphabet) + value[index + 1 :]

    pool = {kind: [word() for _ in range(max(3, count // 3))] for kind in KINDS}
    records: list[dict[str, str]] = []
    for i in range(count):
        if shape == "dupes" and records and rng.random() < 0.5:
            # near-duplicate of an earlier record: one value typo'd
            base = dict(rng.choice(records))
            victim = rng.choice(sorted(base))
            base[victim] = typo(base[victim])
            records.append(base)
            continue
        record: dict[str, str] = {}
        for kind in KINDS:
            if rng.random() < 0.15:  # missing data
                continue
            if shape == "singleton":
                record[kind] = f"{word()}-{i}-{kind}"  # unique everywhere
            elif shape == "skewed":
                values = pool[kind]
                # zipf-ish choice: low ranks vastly more popular
                rank = min(int(rng.paretovariate(1.0)) - 1, len(values) - 1)
                record[kind] = values[rank]
            else:
                record[kind] = rng.choice(pool[kind])
        if shape == "empty" and rng.random() < 0.3:
            record = {}  # object with an empty description
        if shape == "giant":
            record["genre"] = "common"  # every object shares one block
        records.append(record)

    ods = []
    for i, record in enumerate(records):
        pairs = [
            (value, f"/db/item[{i + 1}]/{kind}[1]")
            for kind, value in sorted(record.items())
        ]
        ods.append(od_from_pairs(i, pairs))
    return ods


def session_over(ods, **config_kwargs) -> DetectionSession:
    config = DogmatixConfig(theta_tuple=0.25, **config_kwargs)
    mapping = TypeMapping().add("ITEM", "/db/item")
    return DetectionSession.from_ods(ods, mapping, "ITEM", config)


def assert_results_identical(reference, other):
    # Field-by-field asserts for readable failure diffs, then the
    # shared parity predicate so this stays in lockstep with its
    # definition on DetectionResult.
    assert other.pairs == reference.pairs  # order, ids, scores, labels
    assert other.clusters == reference.clusters
    assert other.to_xml() == reference.to_xml()
    assert other.compared_pairs == reference.compared_pairs
    assert other.pruned_object_ids == reference.pruned_object_ids
    assert other.identical_to(reference)


# ----------------------------------------------------------------------
# Steps 4+5+6: bit-identical DetectionResults across backends
# ----------------------------------------------------------------------
#: Every process run the harness holds to serial: two worker counts
#: × batch sizes (the executor's module constant) from one pair per
#: task to the default.
PROCESS_RUNS = tuple(
    (workers, batch_size)
    for workers in (2, 3)
    for batch_size in (1, 7, 32, 256)
)


def run_id(run: tuple[int, int]) -> str:
    return f"w{run[0]}-b{run[1]}"


by_run = pytest.mark.parametrize("run", PROCESS_RUNS, ids=run_id)


def detect_as(session, run, monkeypatch):
    """``session.detect()`` on ``run``'s worker count and batch size."""
    workers, batch_size = run
    monkeypatch.setattr(executor, "BATCH_SIZE", batch_size)
    return session.detect(policy=ExecutionPolicy(workers=workers))


class TestProcessBackendEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @by_run
    def test_fuzzed_corpora(self, seed, shape, run, monkeypatch):
        """The invariant: serial == process on random corpora, down to
        the object filter's decision sequence."""
        ods = random_corpus(seed, shape)
        session = session_over(ods)
        reference = session.detect()  # serial
        decisions = tuple(session.object_filter.decisions)
        assert [d.object_id for d in decisions] == [od.object_id for od in ods]
        assert_results_identical(reference, detect_as(session, run, monkeypatch))
        assert tuple(session.object_filter.decisions) == decisions

    @pytest.mark.parametrize("seed", SEEDS)
    @by_run
    def test_without_object_filter(self, seed, run, monkeypatch):
        ods = random_corpus(seed, "dupes")
        session = session_over(ods, use_object_filter=False)
        reference = session.detect()
        assert reference.duplicate_pairs  # the shape actually produces work
        assert_results_identical(reference, detect_as(session, run, monkeypatch))

    @pytest.mark.parametrize("seed", SEEDS)
    @by_run
    def test_without_blocking_all_pairs(self, seed, run, monkeypatch):
        """use_blocking=False: the quadratic loop, batched."""
        ods = random_corpus(seed, "uniform", count=24)
        session = session_over(ods, use_blocking=False)
        reference = session.detect()
        assert_results_identical(reference, detect_as(session, run, monkeypatch))

    @by_run
    def test_possible_band_survives_sharding(self, run, monkeypatch):
        ods = random_corpus(SEEDS[0], "dupes")
        session = session_over(ods, possible_threshold=0.2)
        reference = session.detect()
        assert reference.possible_pairs  # C2 band exercised
        assert_results_identical(reference, detect_as(session, run, monkeypatch))

    @pytest.mark.slow
    @by_run
    def test_dirty_dataset_end_to_end(self, run, monkeypatch):
        """Realistic generator corpus (XML, schemas, gold) through the
        process backend."""
        from repro.api import Corpus
        from repro.eval import build_dataset1

        dataset = build_dataset1(base_count=30, seed=7)
        session = DetectionSession(
            Corpus(dataset.sources),
            dataset.mapping,
            dataset.real_world_type,
            DogmatixConfig(),
        )
        reference = session.detect()
        assert reference.duplicate_pairs
        assert_results_identical(reference, detect_as(session, run, monkeypatch))
