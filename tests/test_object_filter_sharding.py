"""Worker-sharded object-filter evaluation (``filter_in_workers``).

The tentpole invariant of the sharded filter: wherever f(OD_i) runs —
parent pass, worker shards merged by the engine, or the no-pool lazy
fallback — every execution mode must produce the **identical
FilterDecision sequence** (ids, scores, shared/unique idfs, kept
flags), in candidate order, and therefore the identical
``pruned_object_ids`` and detection result.  The fuzz harness
(``test_shard_equivalence``) pins result-level parity; these tests pin
the decisions themselves, plus the deterministic object partition the
workers rely on.
"""

from __future__ import annotations

import pytest

from repro.api import DetectionSession
from repro.core import (
    CorpusIndex,
    DogmatixConfig,
    FilterDecision,
    ObjectFilter,
    singleton_soft_idf,
)
from repro.core.dogmatix import DogmatixShardFactory
from repro.engine import ExecutionPolicy, ShardedPairSource, owned_filter_objects
from repro.eval import build_dataset1, build_dataset3
from repro.framework import TypeMapping, od_from_pairs

from test_shard_equivalence import (
    SEEDS,
    SHAPES,
    assert_results_identical,
    random_corpus,
    session_over,
)

#: Every placement of the filter the shard backend supports.
FILTER_PLACEMENTS = (
    ExecutionPolicy.sharded(2),  # parent pass, kept_ids shipped
    ExecutionPolicy.sharded(2, filter_in_workers=True),  # worker shards
    ExecutionPolicy.sharded(2, shard_by="object", filter_in_workers=True),
    ExecutionPolicy.sharded(1, filter_in_workers=True),  # lazy fallback
)


class TestOwnedFilterObjects:
    @pytest.mark.parametrize("shard_count", (1, 2, 5, 16))
    def test_partition_is_disjoint_and_exhaustive(self, shard_count):
        ods = random_corpus(SEEDS[0], "uniform")
        seen: list[int] = []
        for shard_id in range(shard_count):
            seen.extend(
                od.object_id
                for od in owned_filter_objects(ods, shard_id, shard_count)
            )
        assert sorted(seen) == sorted(od.object_id for od in ods)
        assert len(seen) == len(set(seen))

    def test_invalid_shard_id(self):
        ods = random_corpus(SEEDS[0], "uniform", count=4)
        with pytest.raises(ValueError):
            owned_filter_objects(ods, 3, 3)


class TestLazyFallbackFilter:
    """ShardedPairSource with an ObjectDecider but no pool: the pass
    runs in the caller, in candidate order, on first enumeration."""

    def make_source(self, ods, index, theta=0.55):
        return ShardedPairSource(
            3,
            block_index=index,
            object_filter=ObjectFilter(index, theta).decide,
        )

    def test_filters_and_reports_in_candidate_order(self):
        ods = random_corpus(SEEDS[0], "dupes")
        index = CorpusIndex(ods, TypeMapping(), theta_tuple=0.25)
        reference = ObjectFilter(index, 0.55)
        expected_pruned = [
            od.object_id for od in ods if not reference.keep(od)
        ]
        source = self.make_source(ods, index)
        pairs = list(source.pairs(ods))
        assert source.pruned_ids == expected_pruned
        assert [d.object_id for d in source.filter_decisions] == [
            od.object_id for od in ods
        ]
        kept = source.kept_ids
        assert kept is not None
        assert all(a in kept and b in kept for a, b in pairs)

    def test_filter_runs_eagerly_even_for_undrained_streams(self):
        ods = random_corpus(SEEDS[0], "dupes")
        index = CorpusIndex(ods, TypeMapping(), theta_tuple=0.25)
        source = self.make_source(ods, index)
        source.shard_pairs(ods, 0)  # never drained
        assert source.kept_ids is not None
        assert source.filter_decisions

    def test_adopted_decisions_preempt_shard_enumeration(self):
        """The worker flow: once the pool's merged kept ids / decisions
        are installed, per-shard enumeration must not re-run the pass."""
        ods = random_corpus(SEEDS[0], "uniform", count=12)
        index = CorpusIndex(ods, TypeMapping(), theta_tuple=0.25)
        calls: list[int] = []

        def decider(od):
            calls.append(od.object_id)
            raise AssertionError("lazy pass must not run after adoption")

        source = ShardedPairSource(2, block_index=index, object_filter=decider)
        merged = ObjectFilter(index, 0.55)
        decisions = [merged.decide(od) for od in ods]
        source.adopt_filter_decisions(decisions)
        for shard_id in range(source.shard_count):
            list(source.shard_pairs(ods, shard_id))
        assert not calls
        assert source.pruned_ids == [
            d.object_id for d in decisions if not d.kept
        ]

    def test_reused_source_re_evaluates_for_the_current_candidates(self):
        """Regression (same class as the ObjectFilterPruning fix): a
        reused filter-carrying source must report *this* run's pruned
        ids and enumerate against this run's kept set — even when the
        previous pairs() stream already populated both — and an
        undrained second stream must not leave the first run's state
        in place."""
        first = random_corpus(SEEDS[0], "dupes")
        second = random_corpus(SEEDS[1], "dupes")
        ods = first + [
            type(od)(od.object_id + len(first), od.tuples, od.element)
            for od in second
        ]
        index = CorpusIndex(ods, TypeMapping(), theta_tuple=0.25)
        source = self.make_source(ods, index)
        half = ods[: len(first)]
        list(source.pairs(half))
        stale = list(source.pruned_ids)
        stream = source.pairs(ods)  # full set, deliberately not drained
        reference = ObjectFilter(index, 0.55)
        expected = [od.object_id for od in ods if not reference.keep(od)]
        assert source.pruned_ids == expected
        assert source.pruned_ids != stale
        kept = source.kept_ids
        assert all(a in kept and b in kept for a, b in stream)


class TestShardFactoryFilter:
    def test_filter_theta_builds_a_deciding_source(self):
        ods = random_corpus(SEEDS[0], "dupes")
        factory = DogmatixShardFactory(
            mapping=TypeMapping(),
            theta_tuple=0.25,
            theta_cand=0.55,
            possible_threshold=None,
            semantics="matching",
            shard_count=4,
            filter_theta=0.55,
        )
        assert factory.filters_objects
        _, source = factory(ods)
        assert source.object_filter is not None

    def test_filter_theta_excludes_precomputed_kept_ids(self):
        with pytest.raises(ValueError):
            DogmatixShardFactory(
                mapping=TypeMapping(),
                theta_tuple=0.25,
                theta_cand=0.55,
                possible_threshold=None,
                semantics="matching",
                shard_count=4,
                kept_ids=frozenset({1}),
                filter_theta=0.55,
            )

    def test_parent_side_factory_does_not_filter(self):
        factory = DogmatixShardFactory(
            mapping=TypeMapping(),
            theta_tuple=0.25,
            theta_cand=0.55,
            possible_threshold=None,
            semantics="matching",
            shard_count=4,
            kept_ids=frozenset({1, 2}),
        )
        assert not factory.filters_objects


class TestPolicyKnob:
    def test_filter_in_workers_requires_shard_backend(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(
                workers=2, backend="process", filter_in_workers=True
            )
        with pytest.raises(ValueError):
            ExecutionPolicy(filter_in_workers=True)  # serial

    def test_sharded_constructor_threads_the_knob(self):
        policy = ExecutionPolicy.sharded(2, filter_in_workers=True)
        assert policy.backend == "shard"
        assert policy.filter_in_workers


class TestFilterDecisionParity:
    """Identical FilterDecision sequences across every execution mode."""

    def decisions_for(self, ods, policy):
        session = session_over(ods)
        result = session.detect(policy=policy)
        assert session.object_filter is not None
        return result, tuple(session.object_filter.decisions)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lazy_fallback_matches_serial(self, seed):
        """No-pool placements (cheap: no process spawns)."""
        ods = random_corpus(seed, "dupes")
        reference, expected = self.decisions_for(ods, None)
        assert [d.object_id for d in expected] == [od.object_id for od in ods]
        result, decisions = self.decisions_for(
            ods, ExecutionPolicy.sharded(1, filter_in_workers=True)
        )
        assert decisions == expected
        assert_results_identical(reference, result)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", ("dupes", "skewed", "giant"))
    def test_all_backends_agree_decision_for_decision(self, seed, shape):
        ods = random_corpus(seed, shape)
        reference, expected = self.decisions_for(ods, None)
        policies = FILTER_PLACEMENTS + (
            ExecutionPolicy(workers=2, batch_size=32, backend="process"),
        )
        for policy in policies:
            result, decisions = self.decisions_for(ods, policy)
            assert decisions == expected, policy
            assert_results_identical(reference, result)

    @pytest.mark.slow
    def test_pruned_ids_keep_candidate_order_across_worker_counts(self):
        """The merge step must reorder worker results back into
        candidate order — shard-id order would differ."""
        ods = random_corpus(SEEDS[1], "dupes")
        session = session_over(ods)
        reference = session.detect()
        assert len(reference.pruned_object_ids) >= 2
        for workers in (2, 3):
            result = session.detect(
                policy=ExecutionPolicy.sharded(workers, filter_in_workers=True)
            )
            assert result.pruned_object_ids == reference.pruned_object_ids

    @pytest.mark.slow
    def test_backend_comparison_harness_checks_filter_parity(self):
        from repro.eval import build_dataset1
        from repro.eval.harness import compare_execution_backends

        dataset = build_dataset1(base_count=15, seed=7)
        runs = compare_execution_backends(
            dataset,
            [
                ExecutionPolicy(),
                ExecutionPolicy.sharded(2),
                ExecutionPolicy.sharded(2, filter_in_workers=True),
            ],
            use_object_filter=True,
        )
        assert all(run.identical for run in runs)
        assert all(run.filter_identical for run in runs)


# ----------------------------------------------------------------------
# "Does anyone else specify this kind" is a question, not a set
# ----------------------------------------------------------------------
def reference_decide(index: CorpusIndex, theta_cand: float, od) -> FilterDecision:
    """``ObjectFilter.decide`` as it stood while it copied every holder
    of the kind per unique tuple (``objects_with_key(key) - {id}``)."""
    shared_idf = 0.0
    unique_idf = 0.0
    for odt in od.tuples:
        key = index.key_of(odt.name)
        if index.objects_with_similar(key, odt.value, exclude=od.object_id):
            shared_idf += singleton_soft_idf(odt, index)
        elif index.objects_with_key(key) - {od.object_id}:
            unique_idf += singleton_soft_idf(odt, index)
    denominator = shared_idf + unique_idf
    score = shared_idf / denominator if denominator > 0 else 0.0
    return FilterDecision(
        od.object_id, score, shared_idf, unique_idf, score > theta_cand
    )


def generated_session(dataset) -> DetectionSession:
    return DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type, DogmatixConfig()
    )


class TestKindElsewhere:
    def assert_decisions_equal_reference(self, index, ods) -> None:
        assert index.frozen
        object_filter = ObjectFilter(index, 0.55)
        for od in ods:
            assert object_filter.decide(od) == reference_decide(index, 0.55, od)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fuzz_corpora(self, seed, shape):
        ods = random_corpus(seed, shape)
        session = session_over(ods)
        lone = od_from_pairs(len(ods), [("only here", "/db/item[99]/label[1]")])
        foreign = od_from_pairs(-1, [(t.value, t.name) for t in ods[-1].tuples])
        self.assert_decisions_equal_reference(session.index, [*ods, lone, foreign])

    def test_generated_datasets(self):
        for dataset in (build_dataset1(30, seed=7), build_dataset3(150, seed=7)):
            session = generated_session(dataset)
            self.assert_decisions_equal_reference(session.index, session.ods)

    def test_reader_agrees_with_the_snapshot(self):
        ods = random_corpus(SEEDS[0], "giant")
        ods.append(od_from_pairs(len(ods), [("x", "/db/item[99]/label[1]")]))
        index = session_over(ods).index
        keys = {key for key, _ in index.block_terms()} | {"no/such/key"}
        for key in keys:
            holders = index.objects_with_key(key)
            for object_id in (-1, 0, len(ods) - 1, len(ods)):
                assert index.key_elsewhere(key, object_id) == bool(
                    holders - {object_id}
                ), (key, object_id)

    def test_a_warm_pass_copies_no_holder_row(self, monkeypatch):
        session = generated_session(build_dataset3(150, seed=7))
        index = session.index
        first = ObjectFilter(index, 0.55)
        unique_tuples = sum(
            1
            for od in session.ods
            for odt in od.tuples
            if not index.objects_with_similar(
                index.key_of(odt.name), odt.value, exclude=od.object_id
            )
        )
        assert unique_tuples > len(session.ods) / 4  # the shape that copied
        expected = [first.decide(od) for od in session.ods]

        copies: list[str] = []
        key_row = type(index._terms).key_row

        def counting_key_row(self, key):
            copies.append(key)
            return key_row(self, key)

        monkeypatch.setattr(type(index._terms), "key_row", counting_key_row)
        warm = ObjectFilter(index, 0.55)
        assert [warm.decide(od) for od in session.ods] == expected
        assert copies == []
