"""Merge-associativity fuzz suite for mergeable index partials.

The parallel ingest subsystem rests on one algebraic claim: folding
:class:`~repro.core.index.IndexPartial` values over *any* partition of
the OD instance, in *any* order, yields a :class:`CorpusIndex` whose
observable behavior — ``statistics()``, the blocking view
(``block_terms``/``block_members``), similar-value groups, and soft-IDF
weights — is identical to the serial build's.  These tests pin that on
the same seeded-random corpora the backend-equivalence harness uses,
splitting them into 1/2/4/7 partitions merged in shuffled orders, and
extend the claim to what a detection reads downstream (every pair's
score and every object's filter decision on a merged index) and to
delta merges into a live index (the ``extend()`` path).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core import (
    CorpusIndex,
    DogmatixConfig,
    DogmatixSimilarity,
    IndexPartial,
    ObjectFilter,
)
from repro.core.softidf import singleton_soft_idf
from repro.framework import TypeMapping

from test_backend_equivalence import SEEDS, SHAPES, random_corpus

THETA_TUPLE = 0.25

PARTITION_COUNTS = (1, 2, 4, 7)


def split(ods, parts: int):
    """Contiguous partition into ``parts`` chunks (some may be empty)."""
    size = -(-len(ods) // parts)
    return [ods[i * size : (i + 1) * size] for i in range(parts)]


def observable_state(index: CorpusIndex) -> dict:
    """Everything downstream code can see of an index."""
    terms = sorted(index.block_terms())
    return {
        "statistics": index.statistics(),
        "terms": terms,
        "members": {term: frozenset(index.block_members(term)) for term in terms},
        "similar": {
            term: frozenset(index.similar_values(*term)) for term in terms
        },
    }


def merged_index(ods, mapping, parts: int, rng: random.Random) -> CorpusIndex:
    """Index from a shuffled-order merge of a ``parts``-way partition."""
    partials = [
        IndexPartial.from_ods(chunk, mapping) for chunk in split(ods, parts)
    ]
    rng.shuffle(partials)
    merged = IndexPartial()
    for partial in partials:
        merged.merge(partial)
    return CorpusIndex.from_partial(merged, mapping, THETA_TUPLE)


class TestMergeEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("parts", PARTITION_COUNTS)
    def test_partition_merge_matches_serial(self, seed, shape, parts):
        """The tentpole invariant: any partition count, shuffled merge
        order, same observable index as the serial build."""
        ods = random_corpus(seed, shape)
        mapping = TypeMapping()
        serial = CorpusIndex(ods, mapping, THETA_TUPLE)
        rng = random.Random(seed * 1000 + parts)
        merged = merged_index(ods, mapping, parts, rng)
        assert observable_state(merged) == observable_state(serial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soft_idf_weights_match_serial(self, seed):
        """Pair and singleton soft-IDF weights are merge-invariant."""
        ods = random_corpus(seed, "dupes")
        mapping = TypeMapping()
        serial = CorpusIndex(ods, mapping, THETA_TUPLE)
        merged = merged_index(ods, mapping, 4, random.Random(seed))
        terms = sorted(serial.block_terms())
        rng = random.Random(seed + 1)
        for _ in range(min(200, len(terms) ** 2)):
            (key_i, value_i), (key_j, value_j) = rng.choice(terms), rng.choice(terms)
            assert merged.pair_idf(key_i, value_i, key_j, value_j) == (
                serial.pair_idf(key_i, value_i, key_j, value_j)
            )
        for od in ods:
            for odt in od.tuples:
                assert singleton_soft_idf(odt, merged) == (
                    singleton_soft_idf(odt, serial)
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_is_associative(self, seed):
        """((a·b)·c) and (a·(b·c)) are observably the same index."""
        ods = random_corpus(seed, "skewed")
        mapping = TypeMapping()
        chunks = split(ods, 3)

        def partials():
            return [IndexPartial.from_ods(chunk, mapping) for chunk in chunks]

        a, b, c = partials()
        left = a.merge(b).merge(c)
        a, b, c = partials()
        right = a.merge(b.merge(c))
        assert observable_state(
            CorpusIndex.from_partial(left, mapping, THETA_TUPLE)
        ) == observable_state(
            CorpusIndex.from_partial(right, mapping, THETA_TUPLE)
        )

    def test_empty_partitions_are_identity(self):
        ods = random_corpus(SEEDS[0], "uniform", count=10)
        mapping = TypeMapping()
        merged = IndexPartial()
        merged.merge(IndexPartial.from_ods([], mapping))
        merged.merge(IndexPartial.from_ods(ods, mapping))
        merged.merge(IndexPartial.from_ods([], mapping))
        serial = CorpusIndex(ods, mapping, THETA_TUPLE)
        index = CorpusIndex.from_partial(merged, mapping, THETA_TUPLE)
        assert observable_state(index) == observable_state(serial)

    def test_q_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndexPartial(q=2).merge(IndexPartial(q=3))
        index = CorpusIndex((), TypeMapping(), THETA_TUPLE, q=2)
        with pytest.raises(ValueError):
            index.merge_partial(IndexPartial(q=3))


class TestMergedIndexDownstream:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", ("dupes", "skewed"))
    def test_scoring_bit_identical_on_merged_index(self, seed, shape):
        """What a detection reads of its index — every pair's score,
        every object's filter decision — is the serial build's on a
        shuffled-merge index."""
        ods = random_corpus(seed, shape)
        mapping = TypeMapping().add("ITEM", "/db/item")
        serial = CorpusIndex(ods, mapping, THETA_TUPLE)
        merged = merged_index(ods, mapping, 4, random.Random(seed))
        theta = DogmatixConfig().theta_cand
        score, merged_score = DogmatixSimilarity(serial), DogmatixSimilarity(merged)
        assert [
            merged_score(left, right) for left, right in combinations(ods, 2)
        ] == [score(left, right) for left, right in combinations(ods, 2)]
        keep = ObjectFilter(serial, theta).keep
        merged_keep = ObjectFilter(merged, theta).keep
        assert [merged_keep(od) for od in ods] == [keep(od) for od in ods]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_merge_into_live_index(self, seed):
        """merge_partial on a live index (the extend() path) reaches
        the same observable state as indexing everything serially."""
        ods = random_corpus(seed, "dupes")
        mapping = TypeMapping()
        base, delta = ods[: len(ods) // 2], ods[len(ods) // 2 :]
        live = CorpusIndex(base, mapping, THETA_TUPLE)
        # Warm every memo entry first: merge_partial must drop exactly
        # the ones the delta touches (tests/test_write_path.py).
        for term in live.block_terms():
            live.similar_values(*term)
        live.merge_partial(IndexPartial.from_ods(delta, mapping))
        serial = CorpusIndex(ods, mapping, THETA_TUPLE)
        assert observable_state(live) == observable_state(serial)


class TestTheFoldNeverAliases:
    """An index copies what it folds in: the caller's partial — the one
    handed to ``from_partial`` or the delta handed to ``merge_partial``
    — stays the caller's, and changing it afterwards changes no read."""

    @staticmethod
    def reads(index: CorpusIndex, terms) -> dict:
        return {
            "objects": index.total_objects,
            "occurrences": {term: index.occurrences(*term) for term in terms},
            "similar": {term: index.similar_values(*term) for term in terms},
            "statistics": index.statistics(),
        }

    @staticmethod
    def tamper(partial: IndexPartial, extra, mapping) -> None:
        term = next(iter(partial.occurrences))
        partial.occurrences[term].add(10_000)
        key = next(iter(partial.objects_by_key))
        partial.objects_by_key[key].add(10_000)
        partial.merge(IndexPartial.from_ods(extra, mapping))
        for value_index in partial.value_indexes.values():
            value_index._grams[0].clear()

    def thirds(self, seed):
        ods = random_corpus(seed, "dupes")
        third = len(ods) // 3
        return ods[:third], ods[third : 2 * third], ods[2 * third :]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_from_partial_copies_the_callers_partial(self, seed):
        mapping = TypeMapping()
        base, _, extra = self.thirds(seed)
        partial = IndexPartial.from_ods(base, mapping)
        index = CorpusIndex.from_partial(partial, mapping, THETA_TUPLE)
        self.tamper(partial, extra, mapping)
        serial = CorpusIndex(base, mapping, THETA_TUPLE)
        terms = sorted(serial.block_terms())
        assert self.reads(index, terms) == self.reads(serial, terms)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_partial_copies_the_delta(self, seed):
        mapping = TypeMapping()
        base, added, extra = self.thirds(seed)
        live = CorpusIndex(base, mapping, THETA_TUPLE)
        delta = IndexPartial.from_ods(added, mapping)
        live.merge_partial(delta)
        self.tamper(delta, extra, mapping)
        serial = CorpusIndex(base + added, mapping, THETA_TUPLE)
        terms = sorted(serial.block_terms())
        assert self.reads(live, terms) == self.reads(serial, terms)
