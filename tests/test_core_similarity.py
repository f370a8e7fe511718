"""Similarity machinery tests: odtDist, matching, softIDF, sim."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from reference import match_tuples as oracle
from reference.softidf import singleton_soft_idf, soft_idf
from repro.core import CorpusIndex, DogmatixSimilarity, match_tuples
from repro.core.matching import SEMANTICS
from repro.framework import (
    ObjectDescription,
    ODTuple,
    TypeMapping,
    merge_cluster_od,
    od_from_pairs,
)
from repro.strings import normalized_edit_distance, within_normalized


@pytest.fixture()
def mapping():
    return (
        TypeMapping()
        .add("TITLE", ["/db/movie/title", "/db/film/name"])
        .add("CITY", "/db/country/city")
    )


def pair_verdict(a, b, mapping, theta):
    """One tuple pair through step 5: similar, contradictory, or
    incomparable (non-specified on both sides)."""
    result = match_tuples(
        od_from_pairs(0, [(a.value, a.name)]),
        od_from_pairs(1, [(b.value, b.name)]),
        mapping,
        theta,
    )
    if result.similar:
        return "similar"
    if result.contradictory:
        return "contradictory"
    assert len(result.non_specified_left) == len(result.non_specified_right) == 1
    return "incomparable"


class TestOdtDist:
    """Definition 7: odtDist is ned for tuples of one real-world type
    and 1 otherwise; a pair is similar iff odtDist < θ_tuple.  Step 5
    asks it through ``within_normalized`` and the index's memoized
    similar-value groups (``CorpusIndex.similar_verdict``)."""

    def test_incomparable_distance_one(self, mapping):
        a = ODTuple("The Matrix", "/db/movie[1]/title")
        b = ODTuple("The Matrix", "/db/movie[1]/review")
        # distance 1 is never below a θ_tuple ≤ 1
        assert pair_verdict(a, b, mapping, 1.0) == "incomparable"

    def test_comparable_uses_ned(self, mapping):
        a = ODTuple("The Matrix", "/db/movie[1]/title")
        b = ODTuple("Matrix", "/db/film[3]/name")
        assert normalized_edit_distance(a.value, b.value) == pytest.approx(0.4)
        assert pair_verdict(a, b, mapping, 0.45) == "similar"
        assert pair_verdict(a, b, mapping, 0.4) == "contradictory"

    def test_equal_values(self, mapping):
        a = ODTuple("X", "/db/movie[1]/title")
        b = ODTuple("X", "/db/movie[2]/title")
        assert normalized_edit_distance(a.value, b.value) == 0.0
        assert pair_verdict(a, b, mapping, 0.01) == "similar"
        ods = [od_from_pairs(0, [(a.value, a.name)])]
        index = CorpusIndex(ods, mapping, 0.15)
        assert index.similar_verdict(index.key_of(a.name), "X", "X") is True

    def test_odt_similar_strict(self, mapping):
        a = ODTuple("abcdefgh", "/db/movie[1]/title")
        b = ODTuple("abcdefgx", "/db/movie[2]/title")
        # ned = 0.125
        assert within_normalized(a.value, b.value, 0.15)
        assert not within_normalized(a.value, b.value, 0.125)
        assert pair_verdict(a, b, mapping, 0.15) == "similar"
        assert pair_verdict(a, b, mapping, 0.125) == "contradictory"
        ods = [
            od_from_pairs(0, [(a.value, a.name)]),
            od_from_pairs(1, [(b.value, b.name)]),
        ]
        for theta, expected in ((0.15, True), (0.125, False)):
            index = CorpusIndex(ods, mapping, theta)
            key = index.key_of(a.name)
            assert index.similar_verdict(key, a.value, b.value) is expected
            assert index.similar_verdict(key, b.value, a.value) is expected

    def test_odt_similar_incomparable(self, mapping):
        a = ODTuple("same", "/db/movie/title")
        b = ODTuple("same", "/db/other")
        assert pair_verdict(a, b, mapping, 0.99) == "incomparable"
        ods = [
            od_from_pairs(0, [(a.value, a.name)]),
            od_from_pairs(1, [(b.value, b.name)]),
        ]
        index = CorpusIndex(ods, mapping, 0.99)
        assert index.key_of(a.name) != index.key_of(b.name)
        # equal values of another kind are not in one another's groups
        assert index.objects_with_similar(index.key_of(a.name), "same") == {0}
        assert index.objects_with_similar(index.key_of(b.name), "same") == {1}


class TestMatchTuples:
    def test_paper_countries_example(self, mapping):
        """Countries with cities (NY, LA, Miami) vs (Miami, Boston):
        one similar pair, one contradictory pair (highest distance),
        one non-specified leftover."""
        left = od_from_pairs(
            0,
            [
                ("New York", "/db/country[1]/city"),
                ("Los Angeles", "/db/country[1]/city"),
                ("Miami", "/db/country[1]/city"),
            ],
        )
        right = od_from_pairs(
            1,
            [
                ("Miami", "/db/country[2]/city"),
                ("Boston", "/db/country[2]/city"),
            ],
        )
        result = match_tuples(left, right, mapping, 0.15)
        assert [(a.value, b.value) for a, b in result.similar] == [
            ("Miami", "Miami")
        ]
        # The paper selects (Boston, New York): odtDist 7/8 beats 8/11.
        assert [(a.value, b.value) for a, b in result.contradictory] == [
            ("New York", "Boston")
        ]
        assert [t.value for t in result.non_specified_left] == ["Los Angeles"]
        assert result.non_specified_right == []

    def test_incomparable_kinds_non_specified(self, mapping):
        left = od_from_pairs(0, [("great!", "/db/movie[1]/review")])
        right = od_from_pairs(1, [("500", "/db/movie[2]/sold-number")])
        result = match_tuples(left, right, mapping, 0.5)
        assert result.similar == [] and result.contradictory == []
        assert len(result.non_specified_left) == 1
        assert len(result.non_specified_right) == 1

    def test_one_to_one_similar_matching(self, mapping):
        left = od_from_pairs(
            0, [("Miami", "/db/country[1]/city"), ("Miami", "/db/country[1]/city")]
        )
        right = od_from_pairs(1, [("Miami", "/db/country[2]/city")])
        result = match_tuples(left, right, mapping, 0.15)
        assert len(result.similar) == 1
        assert len(result.non_specified_left) == 1

    def test_cross_schema_comparability(self, mapping):
        left = od_from_pairs(0, [("The Matrix", "/db/movie[1]/title")])
        right = od_from_pairs(1, [("The Matrix", "/db/film[2]/name")])
        result = match_tuples(left, right, mapping, 0.15)
        assert len(result.similar) == 1

    def test_symmetry_of_counts(self, mapping):
        left = od_from_pairs(
            0,
            [("New York", "/db/country[1]/city"), ("Miami", "/db/country[1]/city")],
        )
        right = od_from_pairs(
            1,
            [("Miami", "/db/country[2]/city"), ("Boston", "/db/country[2]/city")],
        )
        forward = match_tuples(left, right, mapping, 0.15)
        backward = match_tuples(right, left, mapping, 0.15)
        assert len(forward.similar) == len(backward.similar)
        assert len(forward.contradictory) == len(backward.contradictory)

    def test_similar_pairs_exist(self, mapping):
        left = od_from_pairs(0, [("Miami", "/db/country[1]/city")])
        right = od_from_pairs(1, [("Miami", "/db/country[2]/city")])
        other = od_from_pairs(2, [("Boston", "/db/country[3]/city")])
        assert match_tuples(left, right, mapping, 0.15).similar
        assert not match_tuples(left, other, mapping, 0.15).similar


class TestSoftIDF:
    def make_index(self, mapping):
        ods = [
            od_from_pairs(0, [("The Matrix", "/db/movie[1]/title")]),
            od_from_pairs(1, [("Matrix", "/db/movie[2]/title")]),
            od_from_pairs(2, [("Matrix", "/db/film[1]/name")]),
            od_from_pairs(3, [("Signs", "/db/movie[3]/title")]),
        ]
        return ods, CorpusIndex(ods, mapping, 0.15)

    def test_singleton_idf(self, mapping):
        ods, index = self.make_index(mapping)
        unique = singleton_soft_idf(ODTuple("Signs", "/db/movie[3]/title"), index)
        assert unique == pytest.approx(math.log(4 / 1))
        shared = singleton_soft_idf(ODTuple("Matrix", "/db/movie[2]/title"), index)
        # "Matrix" occurs as TITLE in objects 1 and 2 (movie + film paths)
        assert shared == pytest.approx(math.log(4 / 2))

    def test_pair_idf_unions_occurrences(self, mapping):
        ods, index = self.make_index(mapping)
        pair = soft_idf(
            ODTuple("The Matrix", "/db/movie[1]/title"),
            ODTuple("Matrix", "/db/movie[2]/title"),
            index,
        )
        # O(The Matrix) = {0}, O(Matrix) = {1, 2} -> union 3 of 4
        assert pair == pytest.approx(math.log(4 / 3))

    def test_unseen_term_counts_once(self, mapping):
        ods, index = self.make_index(mapping)
        value = soft_idf(
            ODTuple("Unknown", "/db/movie[9]/title"),
            ODTuple("Unknown", "/db/movie[9]/title"),
            index,
        )
        assert value == pytest.approx(math.log(4 / 1))

    def test_ubiquitous_term_zero(self):
        mapping = TypeMapping().add("T", "/d/x")
        ods = [od_from_pairs(i, [("same", f"/d/x[{i}]")]) for i in range(3)]
        # names normalize to /d/x -> all comparable
        index = CorpusIndex(ods, mapping, 0.15)
        assert singleton_soft_idf(ODTuple("same", "/d/x[0]"), index) == 0.0


class TestDogmatixSimilarity:
    @pytest.fixture()
    def corpus(self, movie_ods, movie_mapping):
        index = CorpusIndex(movie_ods, movie_mapping, 0.55)
        return DogmatixSimilarity(index)

    def test_paper_running_example(self, corpus, movie_ods):
        """Movies 1-2 share title/year/actor, differ in nothing that
        both specify; movie 3 shares nothing."""
        sim_12 = corpus(movie_ods[0], movie_ods[1])
        assert sim_12 == 1.0  # no contradictions: Fishburne is missing data
        assert corpus(movie_ods[0], movie_ods[2]) == 0.0
        assert corpus(movie_ods[1], movie_ods[2]) == 0.0

    def test_symmetry(self, corpus, movie_ods):
        for i in range(3):
            for j in range(3):
                assert corpus(movie_ods[i], movie_ods[j]) == pytest.approx(
                    corpus(movie_ods[j], movie_ods[i])
                )

    def test_range(self, corpus, movie_ods):
        for i in range(3):
            for j in range(3):
                assert 0.0 <= corpus(movie_ods[i], movie_ods[j]) <= 1.0

    def test_self_similarity_one(self, corpus, movie_ods):
        for od in movie_ods:
            assert corpus(od, od) == 1.0

    def test_scoring_leaves_no_state(self, corpus, movie_ods):
        """Concurrent readers share one similarity: scoring a pair, or
        explaining it, writes nothing to it."""
        before = dict(vars(corpus))
        corpus(movie_ods[0], movie_ods[1])
        corpus.explain(movie_ods[0], movie_ods[2])
        assert vars(corpus) == before

    def test_contradiction_reduces(self, movie_mapping):
        ods = [
            od_from_pairs(0, [("The Matrix", "/moviedoc/movie[1]/title"),
                              ("1999", "/moviedoc/movie[1]/year")]),
            od_from_pairs(1, [("The Matrix", "/moviedoc/movie[2]/title"),
                              ("2003", "/moviedoc/movie[2]/year")]),
            # a third object keeps the shared title's IDF above zero
            od_from_pairs(2, [("Signs", "/moviedoc/movie[3]/title"),
                              ("2002", "/moviedoc/movie[3]/year")]),
        ]
        index = CorpusIndex(ods, movie_mapping, 0.15)
        similarity = DogmatixSimilarity(index)
        score = similarity(ods[0], ods[1])
        assert 0.0 < score < 1.0

    def test_empty_ods_zero(self, corpus):
        empty = od_from_pairs(7, [])
        assert corpus(empty, empty) == 0.0

    def test_explain_structure(self, corpus, movie_ods):
        explanation = corpus.explain(movie_ods[0], movie_ods[1])
        assert explanation["similarity"] == 1.0
        assert len(explanation["similar_pairs"]) == 3
        assert explanation["contradictory_pairs"] == []
        assert len(explanation["non_specified_left"]) == 1  # L. Fishburne


class TestSemantics:
    def test_all_pairs_counts_every_sub_threshold_pair(self, movie_mapping):
        from repro.core.matching import match_tuples
        from repro.framework import od_from_pairs

        left = od_from_pairs(
            0,
            [("Track 01", "/d/c[1]/t"), ("Track 02", "/d/c[1]/t")],
        )
        right = od_from_pairs(1, [("Track 01", "/d/c[2]/t")])
        one_to_one = match_tuples(left, right, movie_mapping, 0.2)
        literal = match_tuples(left, right, movie_mapping, 0.2,
                               semantics="all-pairs")
        assert len(one_to_one.similar) == 1
        assert len(literal.similar) == 2  # both left tuples pair with right

    def test_unknown_semantics_rejected(self, movie_mapping):
        from repro.core.matching import match_tuples
        from repro.framework import od_from_pairs

        od = od_from_pairs(0, [("x", "/d/c[1]/t")])
        import pytest as _pytest

        with _pytest.raises(ValueError, match="semantics"):
            match_tuples(od, od, movie_mapping, 0.2, semantics="fuzzy")

    def test_config_validates_semantics(self):
        import pytest as _pytest

        from repro.core import DogmatixConfig

        with _pytest.raises(ValueError, match="similar_semantics"):
            DogmatixConfig(similar_semantics="loose")
        assert DogmatixConfig(similar_semantics="all-pairs").similar_semantics == (
            "all-pairs"
        )

    def test_similarity_still_bounded_under_all_pairs(self, movie_ods, movie_mapping):
        from repro.core import CorpusIndex, DogmatixSimilarity

        index = CorpusIndex(movie_ods, movie_mapping, 0.55)
        literal = DogmatixSimilarity(index, semantics="all-pairs")
        for i in range(3):
            for j in range(3):
                assert 0.0 <= literal(movie_ods[i], movie_ods[j]) <= 1.0


# ----------------------------------------------------------------------
# Step 5 against its oracle (tests/reference/match_tuples.py)
# ----------------------------------------------------------------------
#: Path tails: ``alias`` is comparable with ``a`` through the mapping,
#: ``d`` is unmapped (path-identity comparability).
_KINDS = ("a", "alias", "b", "c", "d")


def _fuzz_mapping() -> TypeMapping:
    return (
        TypeMapping()
        .add("A", ["/db/item/a", "/db/item/alias"])
        .add("B", "/db/item/b")
        .add("C", "/db/item/c")
    )


# three letters, so near-duplicates and repeated values are common
_values = st.text(alphabet="abc", max_size=6)
_descriptions = st.lists(
    st.tuples(st.sampled_from(_KINDS), _values), max_size=7
)


def _od(object_id: int, description):
    return od_from_pairs(
        object_id,
        [
            (value, f"/db/item[{object_id + 1}]/{kind}[{slot + 1}]")
            for slot, (kind, value) in enumerate(description)
        ],
    )


# A verdict read from the groups is only as exact as the index's
# search, so the oracle is met through a frozen index.
def _index_over(ods, mapping, theta) -> CorpusIndex:
    index = CorpusIndex(ods, mapping, theta)
    index.freeze()
    return index


class TestAgainstTheOracle:
    @given(
        left=_descriptions,
        right=_descriptions,
        others=st.lists(_descriptions, max_size=4),
        held=st.sampled_from(("both", "left", "right", "neither")),
        semantics=st.sampled_from(SEMANTICS),
        theta=st.integers(0, 100).map(lambda k: k / 100),
    )
    @settings(max_examples=400, deadline=None)
    def test_matching_and_score_equal_the_reference(
        self, left, right, others, held, semantics, theta
    ):
        mapping = _fuzz_mapping()
        od_i, od_j = _od(0, left), _od(1, right)
        corpus = [_od(2 + slot, other) for slot, other in enumerate(others)]
        if held in ("both", "left"):
            corpus.append(od_i)
        if held in ("both", "right"):
            corpus.append(od_j)
        index = _index_over(corpus, mapping, theta)
        similarity = DogmatixSimilarity(index, semantics)
        # both directions: the second reads the groupings the first left
        for one, other in ((od_i, od_j), (od_j, od_i), (od_i, od_i)):
            want = oracle.match_tuples(one, other, mapping, theta, semantics)
            assert match_tuples(one, other, mapping, theta, semantics, index) == want
            assert match_tuples(one, other, mapping, theta, semantics) == want
            score = oracle.from_matching(want, index)
            assert similarity(one, other).hex() == score.hex()
            explanation = similarity.explain(one, other)
            assert explanation["similarity"].hex() == score.hex()
            assert explanation["similar_pairs"] == [
                (str(a), str(b)) for a, b in want.similar
            ]
            assert explanation["contradictory_pairs"] == [
                (str(a), str(b)) for a, b in want.contradictory
            ]
            assert explanation["non_specified_left"] == [
                str(t) for t in want.non_specified_left
            ]
            assert explanation["non_specified_right"] == [
                str(t) for t in want.non_specified_right
            ]

    def test_an_index_built_at_another_threshold_is_refused(
        self, movie_ods, movie_mapping
    ):
        index = CorpusIndex(movie_ods, movie_mapping, 0.55)
        with pytest.raises(ValueError, match="theta_tuple"):
            match_tuples(movie_ods[0], movie_ods[1], movie_mapping, 0.15, index=index)


class TestSymmetry:
    """``sim(a, b)`` against ``sim(b, a)``: ``match()`` scores a pair
    from the queried object's side and ``detect()`` from the lower
    id's.

    The two orders match the same tuple pairs, mirrored, and so sum the
    same soft-IDF terms, but each in its own matching order, which for
    a multi-valued kind can differ between the two; float addition
    rounds by order, so the scores can split in the last bit where
    ``sum`` is plain left-to-right addition (Python before 3.12).
    Hypothesis found such a pair (pinned below).  No candidate pair of
    the bench-shaped corpora splits."""

    @given(
        left=_descriptions,
        right=_descriptions,
        others=st.lists(_descriptions, max_size=4),
        held=st.sampled_from(("both", "left", "right", "neither")),
        semantics=st.sampled_from(SEMANTICS),
        theta=st.integers(0, 100).map(lambda k: k / 100),
    )
    @settings(max_examples=400, deadline=None)
    def test_both_orders_match_mirrored_pairs_and_sum_the_same_terms(
        self, left, right, others, held, semantics, theta
    ):
        """Kinds repeat within a description (multi-valued kinds), and
        either object may be held by the index or foreign to it."""
        mapping = _fuzz_mapping()
        od_i, od_j = _od(0, left), _od(1, right)
        corpus = [_od(2 + slot, other) for slot, other in enumerate(others)]
        if held in ("both", "left"):
            corpus.append(od_i)
        if held in ("both", "right"):
            corpus.append(od_j)
        # one index asks a-then-b, another b-then-a: memos left by the
        # first order must not decide the second
        forward = DogmatixSimilarity(_index_over(corpus, mapping, theta), semantics)
        backward = DogmatixSimilarity(_index_over(corpus, mapping, theta), semantics)
        ab, ba = forward._match(od_i, od_j), backward._match(od_j, od_i)
        for pairs, mirrored in (
            (ab.similar, ba.similar),
            (ab.contradictory, ba.contradictory),
        ):
            assert sorted(pairs, key=repr) == sorted(
                ((a, b) for b, a in mirrored), key=repr
            )
        assert sorted(ab.similar_idf) == sorted(ba.similar_idf)
        assert sorted(ab.contradictory_idf) == sorted(ba.contradictory_idf)
        score = forward(od_i, od_j)
        assert forward(od_i, od_j).hex() == score.hex()  # deterministic
        if (ab.similar_idf, ab.contradictory_idf) == (
            ba.similar_idf,
            ba.contradictory_idf,
        ):  # the same terms in the same order: one float
            assert backward(od_j, od_i).hex() == score.hex()

    def test_the_summation_order_can_split_the_last_bit(self):
        """The pair Hypothesis found: both orders match ``''``, ``'a'``
        and ``'b'`` of one multi-valued kind, and list the soft-IDFs as
        ``[x, x, y]`` and ``[x, y, x]``; left-to-right addition rounds
        the two sums apart in the last bit, and the scores split
        exactly when ``sum`` does."""
        import functools
        import operator

        mapping = _fuzz_mapping()
        od_i = _od(0, [("a", ""), ("a", ""), ("a", "a"), ("a", "b")])
        od_j = _od(1, [("a", "a"), ("a", "b"), ("a", ""), ("a", "a")])
        corpus = [_od(2 + k, o) for k, o in enumerate([[], [], [], [("a", "b")]])]
        index = _index_over([*corpus, od_i, od_j], mapping, 0.01)
        similarity = DogmatixSimilarity(index, "matching")
        ab, ba = similarity._match(od_i, od_j), similarity._match(od_j, od_i)
        assert ab.similar_idf != ba.similar_idf
        assert sorted(ab.similar_idf) == sorted(ba.similar_idf)
        assert ab.contradictory_idf == ba.contradictory_idf
        plain = functools.partial(functools.reduce, operator.add)
        assert plain(ab.similar_idf) != plain(ba.similar_idf)
        split = similarity(od_i, od_j).hex() != similarity(od_j, od_i).hex()
        assert split == (sum(ab.similar_idf) != sum(ba.similar_idf))

    def test_the_bench_shapes_score_both_orders_alike(self):
        """Every candidate pair of a bench-shaped Dataset 1 and Dataset 3
        corpus, multi-valued kinds (tracks, actors) among them."""
        from repro.api import DetectionSession
        from repro.eval import build_dataset1, build_dataset3

        for dataset in (build_dataset1(40, seed=7), build_dataset3(200, seed=11)):
            session = DetectionSession(
                dataset.sources, dataset.mapping, dataset.real_world_type
            )
            similarity, ods = session.similarity, session.ods
            checked = 0
            for od in ods:
                for other in session._similar_object_ids(od):
                    if other > od.object_id:
                        forward = similarity(od, ods[other])
                        assert similarity(ods[other], od).hex() == forward.hex()
                        checked += 1
            assert checked > len(ods)


class TestGroupingLivesOnTheOD:
    @pytest.fixture()
    def ods(self):
        return [
            _od(0, [("a", "abcabc"), ("a", "cab"), ("b", "aaa")]),
            _od(1, [("a", "abcabb"), ("c", "bbb")]),
            _od(2, [("a", "abcab"), ("a", "cabb"), ("b", "aab"), ("c", "bbb")]),
        ]

    def test_fused_representative_with_a_members_id_has_its_own_grouping(self, ods):
        mapping = _fuzz_mapping()
        index = _index_over(ods, mapping, 0.34)
        similarity = DogmatixSimilarity(index)
        fused = merge_cluster_od([0, 1], ods)
        assert fused.object_id == ods[0].object_id

        def expected(one, other):
            return oracle.from_matching(
                oracle.match_tuples(one, other, mapping, 0.34), index
            ).hex()

        before = similarity(fused, ods[2]).hex()
        assert similarity(ods[0], ods[2]).hex() == expected(ods[0], ods[2])
        assert similarity(fused, ods[2]).hex() == before == expected(fused, ods[2])
        assert fused.by_kind(mapping) is not ods[0].by_kind(mapping)
        assert [len(kind) for kind in fused.by_kind(mapping).values()] == [3, 1, 1]
        assert [len(kind) for kind in ods[0].by_kind(mapping).values()] == [2, 1]

    def test_grouping_is_computed_once_and_follows_the_mapping(self, ods, monkeypatch):
        mapping = _fuzz_mapping()
        calls = []
        original = TypeMapping.comparison_key

        def counting(self, xpath):
            calls.append(xpath)
            return original(self, xpath)

        monkeypatch.setattr(TypeMapping, "comparison_key", counting)
        first = ods[0].by_kind(mapping)
        assert ods[0].by_kind(mapping) is first
        assert len(calls) == len(ods[0].tuples)
        with pytest.raises(TypeError):
            first["A"] = ()  # read-only: reader threads share it
        # a mapping that grew, or another mapping, regroups
        mapping.add("D", "/db/item/d")
        assert ods[0].by_kind(mapping) is not first
        assert list(ods[0].by_kind(TypeMapping())) == [
            "/db/item/a", "/db/item/b"
        ]

    def test_pickles_and_bare_copies_carry_id_tuples_element_only(
        self, ods, movie_ods, movie_mapping
    ):
        od = movie_ods[0]
        cold = pickle.dumps(od)
        od.by_kind(movie_mapping)
        assert pickle.dumps(od) == cold
        bare = ObjectDescription(od.object_id, od.tuples, None)
        for copy in (pickle.loads(cold), bare, od.non_empty()):
            assert copy._kinds is None
            assert (copy.object_id, copy.tuples) == (od.object_id, od.tuples)
        assert pickle.loads(cold).element.absolute_path() == od.element.absolute_path()
        assert bare.element is None
