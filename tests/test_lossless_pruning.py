"""Lossless comparison reduction: the no-false-dismissal claims.

Two claims from the paper's Section 5.2, tested against exhaustive
all-pairs runs:

* **Shared-tuple blocking is lossless** — with ``theta_tuple``
  similarity, a pair classified duplicate needs at least one similar
  comparable tuple, and such a pair always shares a block.  Equality
  with all-pairs results must therefore be *exact*, for every corpus,
  seed, and configuration.
* **The object filter dismisses only what it explicitly prunes** — f is
  presented as an upper bound of sim but is heuristic (see
  ``core/object_filter.py``); where its bound holds (the two-source
  movie corpus here) blocking + filter equals all-pairs exactly, and
  everywhere else any lost duplicate pair must involve an explicitly
  pruned object — reduction never drops a pair silently.
"""

from __future__ import annotations

import pytest

import repro.core.matching as matching_module
from reference import match_tuples as oracle
from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
    DogmatixSimilarity,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.eval import build_dataset1, build_dataset2
from repro.eval.datasets import Dataset
from repro.framework import TypeMapping


def run_variant(dataset, heuristic, use_blocking, use_object_filter, **knobs):
    config = DogmatixConfig(
        heuristic=heuristic,
        use_blocking=use_blocking,
        use_object_filter=use_object_filter,
        **knobs,
    )
    return DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type, config
    ).detect()


def paper_dataset():
    return Dataset(
        sources=[Source(paper_example_document(), paper_example_schema())],
        mapping=paper_example_mapping(),
        real_world_type="MOVIE",
        description="paper running example",
    )


class TestBlockingLossless:
    """SharedTupleBlocking vs. all-pairs: exact equality, always."""

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_dirty_cds(self, seed):
        dataset = build_dataset1(base_count=35, seed=seed)
        full = run_variant(dataset, KClosestDescendants(6), False, False)
        blocked = run_variant(dataset, KClosestDescendants(6), True, False)
        assert full.duplicate_pairs  # non-vacuous
        assert blocked.duplicate_id_pairs() == full.duplicate_id_pairs()
        assert blocked.clusters == full.clusters
        # ... while skipping most of the quadratic comparisons.
        assert blocked.compared_pairs < full.compared_pairs

    def test_dirty_movies(self):
        dataset = build_dataset2(count=30, seed=13)
        full = run_variant(dataset, RDistantDescendants(4), False, False)
        blocked = run_variant(dataset, RDistantDescendants(4), True, False)
        assert full.duplicate_pairs
        assert blocked.duplicate_id_pairs() == full.duplicate_id_pairs()
        assert blocked.compared_pairs < full.compared_pairs

    def test_paper_example(self):
        dataset = paper_dataset()
        knobs = dict(theta_tuple=0.55, theta_cand=0.55)
        full = run_variant(dataset, RDistantDescendants(2), False, False, **knobs)
        blocked = run_variant(dataset, RDistantDescendants(2), True, False, **knobs)
        assert full.duplicate_id_pairs() == blocked.duplicate_id_pairs() != set()

    def test_scores_identical_for_surviving_pairs(self):
        """Blocking changes which pairs are *compared*, never a score."""
        dataset = build_dataset1(base_count=25, seed=7)
        full = run_variant(dataset, KClosestDescendants(6), False, False)
        blocked = run_variant(dataset, KClosestDescendants(6), True, False)
        full_scores = {(p.left, p.right): p.similarity for p in full.pairs}
        for pair in blocked.pairs:
            assert full_scores[(pair.left, pair.right)] == pair.similarity


class TestFilterDismissals:
    """Blocking + object filter vs. all-pairs."""

    @pytest.mark.parametrize("seed", [5, 13])
    def test_exact_equality_on_movies(self, seed):
        """Where f's bound holds, reduction loses nothing at all."""
        dataset = build_dataset2(count=30, seed=seed)
        full = run_variant(dataset, RDistantDescendants(4), False, False)
        reduced = run_variant(dataset, RDistantDescendants(4), True, True)
        assert full.duplicate_pairs
        assert reduced.duplicate_id_pairs() == full.duplicate_id_pairs()
        assert reduced.clusters == full.clusters
        assert reduced.compared_pairs < full.compared_pairs

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_dismissals_are_explicit_on_cds(self, seed):
        """Every duplicate pair lost to reduction involves an object the
        filter explicitly pruned — no silent false dismissals."""
        dataset = build_dataset1(base_count=35, seed=seed)
        full = run_variant(dataset, KClosestDescendants(6), False, False)
        reduced = run_variant(dataset, KClosestDescendants(6), True, True)
        pruned = set(reduced.pruned_object_ids)
        lost = full.duplicate_id_pairs() - reduced.duplicate_id_pairs()
        for left, right in lost:
            assert pruned & {left, right}, (
                f"pair ({left}, {right}) was dismissed without either "
                "object being pruned by the filter"
            )
        # And the surviving pairs are exactly the all-pairs duplicates
        # among unpruned objects.
        survivors = {
            (left, right)
            for left, right in full.duplicate_id_pairs()
            if not pruned & {left, right}
        }
        assert reduced.duplicate_id_pairs() == survivors


# ----------------------------------------------------------------------
# Step 5 reads what step 4 wrote
# ----------------------------------------------------------------------
def _oracle_similarity(self, od_i, od_j):
    """``DogmatixSimilarity.similarity`` as it stood before verdicts
    came from the index (tests/reference/match_tuples.py)."""
    index = self.index
    return oracle.from_matching(
        oracle.match_tuples(od_i, od_j, index.mapping, index.theta_tuple, self.semantics),
        index,
    )


def _search_counts(session: DetectionSession) -> tuple[int, int]:
    indexes = session.index._state.value_indexes.values()
    return (
        sum(index.probes for index in indexes),
        sum(index.verifications for index in indexes),
    )


class TestStepFiveWorkCounts:
    """A tuple pair's verdict is settled by step 4's similar-value
    searches (exact: ``TestAgainstTheOracle`` in
    ``tests/test_core_similarity.py``); step 5 must neither search again
    nor redo per pair what is a property of one OD."""

    @pytest.fixture()
    def dataset(self):
        return build_dataset1(base_count=60, seed=7)  # the bench's dense shape

    def detect(self, dataset):
        session = DetectionSession(
            dataset.sources, dataset.mapping, dataset.real_world_type
        )
        return session, session.detect()

    def test_every_group_is_searched_once_and_never_by_step_five(
        self, dataset, monkeypatch
    ):
        session, result = self.detect(dataset)
        probes, verifications = _search_counts(session)
        assert probes == len(session.index.block_terms())
        assert session.detect().identical_to(result)
        assert _search_counts(session) == (probes, verifications)

        monkeypatch.setattr(DogmatixSimilarity, "similarity", _oracle_similarity)
        reference_session, reference = self.detect(dataset)
        assert result.compared_pairs == reference.compared_pairs > 0
        assert reference.identical_to(result)
        assert _search_counts(reference_session) == (probes, verifications)

    def test_an_od_is_grouped_once_and_only_multi_valued_kinds_are_ordered(
        self, dataset, monkeypatch
    ):
        grouped: list[str] = []
        scored: list[tuple] = []
        ordered: list[str] = []
        in_step_five: list[bool] = []
        comparison_key = TypeMapping.comparison_key
        similarity = DogmatixSimilarity.similarity
        match_kind = matching_module._match_kind

        def counting_key(self, xpath):
            if in_step_five:
                grouped.append(xpath)
            return comparison_key(self, xpath)

        def recording_similarity(self, od_i, od_j):
            scored.append((od_i, od_j))
            in_step_five.append(True)
            try:
                return similarity(self, od_i, od_j)
            finally:
                in_step_five.pop()

        def counting_match_kind(key, *args):
            ordered.append(key)
            return match_kind(key, *args)

        monkeypatch.setattr(TypeMapping, "comparison_key", counting_key)
        monkeypatch.setattr(DogmatixSimilarity, "similarity", recording_similarity)
        monkeypatch.setattr(matching_module, "_match_kind", counting_match_kind)
        session, result = self.detect(dataset)
        session.detect()

        assert len(scored) == 2 * result.compared_pairs > 0
        compared = {id(od): od for pair in scored for od in pair}
        assert len(grouped) == sum(len(od.tuples) for od in compared.values())
        mapping = session.mapping
        shared = multi_valued = 0
        for od_i, od_j in scored:
            kinds_j = od_j.by_kind(mapping)
            for key, left in od_i.by_kind(mapping).items():
                if key in kinds_j:
                    shared += 1
                    multi_valued += len(left) + len(kinds_j[key]) > 2
        assert len(ordered) == multi_valued
        assert 0 < multi_valued < shared / 4  # most kinds need no ordering
