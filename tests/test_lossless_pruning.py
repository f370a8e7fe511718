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

from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
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
