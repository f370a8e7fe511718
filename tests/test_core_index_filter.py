"""CorpusIndex and object-filter tests."""

import pytest

from repro.api import DetectionSession
from repro.core import (
    CorpusIndex,
    DogmatixConfig,
    DogmatixSimilarity,
    FilterDecision,
    ObjectFilter,
    singleton_soft_idf,
)
from repro.core.index import IndexPartial
from repro.eval import build_dataset1, build_dataset3
from repro.framework import TypeMapping, od_from_pairs

from test_backend_equivalence import SEEDS, SHAPES, random_corpus, session_over


@pytest.fixture()
def mapping():
    return TypeMapping().add("NAME", "/db/rec/name").add("CODE", "/db/rec/code")


@pytest.fixture()
def ods(mapping):
    return [
        od_from_pairs(0, [("alpha", "/db/rec[1]/name"), ("X1", "/db/rec[1]/code")]),
        od_from_pairs(1, [("alphq", "/db/rec[2]/name"), ("X1", "/db/rec[2]/code")]),
        od_from_pairs(2, [("gamma", "/db/rec[3]/name"), ("Z9", "/db/rec[3]/code")]),
        od_from_pairs(3, [("delta", "/db/rec[4]/name")]),
    ]


@pytest.fixture()
def index(ods, mapping):
    return CorpusIndex(ods, mapping, theta_tuple=0.25)


class TestCorpusIndex:
    def test_occurrences(self, index):
        assert index.occurrences("CODE", "X1") == {0, 1}
        assert index.occurrences("CODE", "Z9") == {2}
        assert index.occurrences("CODE", "nope") == set()

    def test_objects_with_key(self, index):
        assert index.objects_with_key("CODE") == {0, 1, 2}
        assert index.objects_with_key("NAME") == {0, 1, 2, 3}
        assert index.objects_with_key("OTHER") == set()

    def test_occurrences_do_not_leak_internal_state(self, index):
        """Regression: the returned sets are snapshots — mutating them
        (or trying to) must never corrupt the index."""
        occurrences = index.occurrences("CODE", "X1")
        assert isinstance(occurrences, frozenset)
        with pytest.raises(AttributeError):
            occurrences.add(99)  # type: ignore[attr-defined]
        assert index.occurrences("CODE", "X1") == {0, 1}
        # Unseen terms return fresh empties, not a shared mutable set.
        assert isinstance(index.occurrences("CODE", "nope"), frozenset)

    def test_objects_with_key_do_not_leak_internal_state(self, index):
        objects = index.objects_with_key("CODE")
        assert isinstance(objects, frozenset)
        with pytest.raises(AttributeError):
            objects.discard(0)  # type: ignore[attr-defined]
        assert index.objects_with_key("CODE") == {0, 1, 2}
        # Set algebra still works for callers (e.g. the object filter).
        assert objects - {0} == {1, 2}

    def test_block_terms_is_a_snapshot_not_a_live_view(self, index, mapping):
        """Regression: ``block_terms()`` used to return the live
        ``self._occurrences.keys()`` view, so a caller iterating the
        block terms while ``merge_partial()`` folded in a delta saw
        the term set change mid-iteration (``RuntimeError``) and an
        already-taken "snapshot" silently grew new terms."""
        before = index.block_terms()
        assert ("NAME", "omega") not in before
        iterator = iter(index.block_terms())
        first = next(iterator)
        delta = IndexPartial.from_ods(
            [od_from_pairs(4, [("omega", "/db/rec[5]/name")])], mapping
        )
        index.merge_partial(delta)
        # Pre-fix, draining the iterator here raised RuntimeError
        # ("dictionary changed size during iteration") and ``before``
        # had already grown to include the new term.
        assert [first, *iterator] == list(before)
        assert ("NAME", "omega") not in before
        assert ("NAME", "omega") in index.block_terms()

    def test_similar_values(self, index):
        # ned(alpha, alphq) = 0.2 < 0.25
        assert set(index.similar_values("NAME", "alpha")) == {"alpha", "alphq"}
        assert index.similar_values("NAME", "gamma") == ("gamma",)

    def test_similar_values_cached(self, index):
        first = index.similar_values("NAME", "alpha")
        assert index.similar_values("NAME", "alpha") is first

    def test_similar_values_immutable(self, index):
        """Regression: similar_values() returned the live memoized list.

        The return value *is* the ``_similar_cache`` entry, so a caller
        mutating it (say, filtering a similar-value group in place)
        corrupted the group every later query saw — the aliasing class
        PR 1 fixed for occurrences().  An immutable tuple makes the
        mutation impossible instead of merely discouraged.
        """
        group = index.similar_values("NAME", "alpha")
        assert isinstance(group, tuple)
        with pytest.raises(AttributeError):
            group.append("evil")  # type: ignore[attr-defined]
        # The cache entry (and every dependent view) is unperturbed.
        assert set(index.similar_values("NAME", "alpha")) == {"alpha", "alphq"}
        assert index.objects_with_similar("NAME", "alpha") == {0, 1}

    def test_unseen_kind_similar_values_empty_tuple(self, index):
        assert index.similar_values("NOPE", "alpha") == ()

    def test_objects_with_similar(self, index):
        assert index.objects_with_similar("NAME", "alpha") == {0, 1}
        assert index.objects_with_similar("NAME", "alpha", exclude=0) == {1}

    def test_block_keys_pair_similar_objects(self, index, ods):
        keys_0 = set(index.block_keys(ods[0]))
        keys_1 = set(index.block_keys(ods[1]))
        assert keys_0 & keys_1  # share at least one block

    def test_block_keys_disjoint_objects(self, index, ods):
        keys_2 = set(index.block_keys(ods[2]))
        keys_3 = set(index.block_keys(ods[3]))
        assert not (keys_2 & keys_3)

    def test_statistics(self, index):
        stats = index.statistics()
        assert stats["objects"] == 4
        assert stats["kinds"] == 2
        assert stats["terms"] == 6  # 4 names + 2 distinct codes

    def test_invalid_theta(self, ods, mapping):
        with pytest.raises(ValueError):
            CorpusIndex(ods, mapping, theta_tuple=1.5)

    def test_pair_idf_canonical_order(self, index):
        forward = index.pair_idf("NAME", "alpha", "NAME", "alphq")
        backward = index.pair_idf("NAME", "alphq", "NAME", "alpha")
        assert forward == backward


class TestObjectFilter:
    def test_scores_in_range(self, index, ods):
        object_filter = ObjectFilter(index, 0.55)
        for od in ods:
            assert 0.0 <= object_filter.score(od) <= 1.0

    def test_shared_object_kept(self, index, ods):
        object_filter = ObjectFilter(index, 0.55)
        # objects 0 and 1 share name (similar) and code (equal)
        assert object_filter.keep(ods[0])
        assert object_filter.keep(ods[1])

    def test_unique_object_pruned(self, index, ods):
        object_filter = ObjectFilter(index, 0.55)
        # object 2 shares nothing similar with anyone
        assert not object_filter.keep(ods[2])
        assert not object_filter.keep(ods[3])

    def test_decisions_recorded(self, index, ods):
        object_filter = ObjectFilter(index, 0.55)
        for od in ods:
            object_filter.keep(od)
        assert len(object_filter.decisions) == 4
        assert object_filter.pruned_count == 2

    def test_repeated_evaluation_records_one_decision(self, index, ods):
        """Regression: every decide() appended a FilterDecision, so
        score()+keep() on one OD — or repeated match() calls — double-
        counted pruned_count and grew decisions unboundedly."""
        object_filter = ObjectFilter(index, 0.55)
        object_filter.score(ods[2])
        object_filter.keep(ods[2])
        object_filter.decide(ods[2])
        assert len(object_filter.decisions) == 1
        assert object_filter.pruned_count == 1

    def test_decide_is_memoized(self, index, ods):
        object_filter = ObjectFilter(index, 0.55)
        first = object_filter.decide(ods[0])
        assert object_filter.decide(ods[0]) is first

    def test_kind_unspecified_elsewhere_is_neutral(self, mapping):
        ods = [
            od_from_pairs(0, [("alpha", "/db/rec[1]/name"),
                              ("only-here", "/db/rec[1]/code")]),
            od_from_pairs(1, [("alpha", "/db/rec[2]/name")]),
            od_from_pairs(2, [("omega", "/db/rec[3]/name")]),
        ]
        index = CorpusIndex(ods, mapping, 0.25)
        object_filter = ObjectFilter(index, 0.55)
        # object 0's code exists in no other object: neither shared nor
        # unique -> f driven by the shared name alone -> kept
        decision = object_filter.decide(ods[0])
        assert decision.kept
        assert decision.unique_idf == 0.0

    def test_filter_bound_is_heuristic(self, movie_ods, movie_mapping):
        """The paper calls f an upper bound of sim; DESIGN.md documents
        it as heuristic, and the running example is the witness: movie 1
        has unique data (L. Fishburne, Neo, Morpheus), so f(OD_1) < 1,
        yet sim(OD_1, OD_2) = 1 because nothing *both* specify differs.
        Crucially the filter still must not prune OD_1 at θ_cand."""
        index = CorpusIndex(movie_ods, movie_mapping, 0.55)
        similarity = DogmatixSimilarity(index)
        object_filter = ObjectFilter(index, 0.55)
        f_1 = object_filter.score(movie_ods[0])
        assert similarity(movie_ods[0], movie_ods[1]) == 1.0
        assert f_1 < 1.0  # the bound is violated by design here...
        assert f_1 > 0.55  # ...but the filter keeps the object anyway

    def test_filter_bound_holds_without_unique_data(self, movie_ods, movie_mapping):
        """For the object whose data is fully mirrored (movie 2), f is a
        true upper bound of every sim involving it."""
        index = CorpusIndex(movie_ods, movie_mapping, 0.55)
        similarity = DogmatixSimilarity(index)
        object_filter = ObjectFilter(index, 0.55)
        f_2 = object_filter.score(movie_ods[1])
        for other in (movie_ods[0], movie_ods[2]):
            assert f_2 >= similarity(movie_ods[1], other) - 1e-9

    def test_invalid_threshold(self, index):
        with pytest.raises(ValueError):
            ObjectFilter(index, -0.1)


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
        objects_with_key = CorpusIndex.objects_with_key

        def counting_objects_with_key(self, key):
            copies.append(key)
            return objects_with_key(self, key)

        monkeypatch.setattr(CorpusIndex, "objects_with_key", counting_objects_with_key)
        warm = ObjectFilter(index, 0.55)
        assert [warm.decide(od) for od in session.ods] == expected
        assert copies == []
