"""Property-based tests (hypothesis) on the core data structures and
invariants: edit distance metric axioms, bound soundness, q-gram index
completeness, parser round-trips, union-find, matching invariants, and
the similarity measure's range/symmetry."""

import string

from hypothesis import given, settings, strategies as st
from reference import dp_levenshtein

from repro.core import CorpusIndex, DogmatixSimilarity, match_tuples
from repro.framework import TypeMapping, UnionFind, duplicate_clusters, od_from_pairs
from repro.strings import (
    QGramIndex,
    bag_distance,
    edit_distance,
    edit_distance_lower_bound,
    edit_distance_upper_bound,
    jaro,
    jaro_winkler,
    normalized_edit_distance,
    qgrams,
    within_normalized,
)
from repro.xmlkit import Element, parse, serialize

short_text = st.text(alphabet="abcd ", max_size=12)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


# ----------------------------------------------------------------------
# Edit distance axioms
# ----------------------------------------------------------------------
class TestEditDistanceProperties:
    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(short_text, short_text)
    def test_positivity(self, a, b):
        distance = edit_distance(a, b)
        assert distance >= 0
        assert (distance == 0) == (a == b)

    @given(short_text, short_text, short_text)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(short_text, short_text, st.integers(min_value=0, max_value=6))
    def test_banded_consistent_with_full(self, a, b, limit):
        full = dp_levenshtein.edit_distance(a, b)
        assert edit_distance(a, b) == full
        banded = edit_distance(a, b, limit=limit)
        assert banded == (full if full <= limit else limit + 1)

    @given(short_text, short_text)
    def test_bounds_sandwich(self, a, b):
        distance = edit_distance(a, b)
        assert edit_distance_lower_bound(a, b) <= distance
        assert distance <= edit_distance_upper_bound(a, b)

    @given(short_text, short_text)
    def test_bag_distance_bound(self, a, b):
        assert bag_distance(a, b) <= edit_distance(a, b)

    @given(short_text, short_text)
    def test_normalized_range(self, a, b):
        assert 0.0 <= normalized_edit_distance(a, b) <= 1.0

    @given(
        short_text,
        short_text,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_within_normalized_agrees(self, a, b, threshold):
        expected = normalized_edit_distance(a, b) < threshold
        assert within_normalized(a, b, threshold) == expected


class TestJaroProperties:
    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= jaro(a, b) <= 1.0
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert jaro(a, b) == jaro(b, a)

    @given(short_text)
    def test_identity(self, a):
        assert jaro(a, a) == 1.0

    @given(short_text, short_text)
    def test_winkler_dominates_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12


# ----------------------------------------------------------------------
# Metamorphic string-similarity properties on random unicode
# ----------------------------------------------------------------------
# Sharded execution may evaluate a similarity in either operand order
# (worker-local enumeration decides which object is "left"), so any
# asymmetry or order dependence in the string measures could silently
# break serial equivalence.  These properties pin symmetry, identity,
# and triangle-style bounds over the full unicode range — not just the
# ASCII alphabets above.
unicode_text = st.text(max_size=14)


class TestUnicodeLevenshteinMetamorphic:
    @given(unicode_text, unicode_text)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert normalized_edit_distance(a, b) == normalized_edit_distance(b, a)

    @given(unicode_text)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0
        assert normalized_edit_distance(a, a) == 0.0

    @given(unicode_text, unicode_text)
    def test_normalized_range(self, a, b):
        assert 0.0 <= normalized_edit_distance(a, b) <= 1.0

    @given(unicode_text, unicode_text, unicode_text)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(unicode_text, unicode_text, unicode_text)
    @settings(max_examples=60, deadline=None)
    def test_normalized_triangle_bound(self, a, b, c):
        """ned is not a metric, but the underlying distances still obey
        the triangle inequality when de-normalized."""
        def denormalized(x, y):
            return normalized_edit_distance(x, y) * max(len(x), len(y))

        assert denormalized(a, c) <= denormalized(a, b) + denormalized(b, c) + 1e-9

    @given(
        unicode_text,
        unicode_text,
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_normalized_symmetric(self, a, b, threshold):
        assert within_normalized(a, b, threshold) == within_normalized(
            b, a, threshold
        )


class TestUnicodeJaroMetamorphic:
    @given(unicode_text, unicode_text)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert jaro(a, b) == jaro(b, a)
        assert jaro_winkler(a, b) == jaro_winkler(b, a)

    @given(unicode_text)
    def test_identity_and_range(self, a):
        if a:
            assert jaro(a, a) == 1.0
        assert 0.0 <= jaro_winkler(a, a) <= 1.0

    @given(unicode_text, unicode_text)
    @settings(max_examples=50, deadline=None)
    def test_range_and_winkler_dominance(self, a, b):
        score = jaro(a, b)
        assert 0.0 <= score <= 1.0
        assert score - 1e-12 <= jaro_winkler(a, b) <= 1.0


class TestUnicodeQGramMetamorphic:
    @given(unicode_text)
    def test_gram_count_and_reconstruction(self, a):
        grams = qgrams(a, q=2)
        assert len(grams) == len(a) + 1
        # adjacent grams overlap by q-1 characters
        for first, second in zip(grams, grams[1:]):
            assert first[1:] == second[:1]

    @given(st.lists(unicode_text, min_size=1, max_size=12),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_index_completeness_on_unicode(self, values, threshold):
        """Count filtering stays sound outside ASCII: the index search
        equals brute force for any unicode value set."""
        index = QGramIndex(q=2)
        for value in values:
            index.add(value)
        query = values[0]
        expected = {
            value
            for value in set(values)
            if normalized_edit_distance(query, value) < threshold
        }
        assert set(index.search(query, threshold)) == expected

    @given(unicode_text)
    def test_identity_always_found(self, a):
        index = QGramIndex(q=2)
        index.add(a)
        assert a in index.search(a, 0.5)


# ----------------------------------------------------------------------
# q-gram index completeness
# ----------------------------------------------------------------------
class TestQGramIndexProperties:
    @given(
        st.lists(short_text, min_size=1, max_size=25),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_equals_brute_force(self, values, threshold):
        index = QGramIndex(q=2)
        for value in values:
            index.add(value)
        query = values[0]
        expected = {
            value
            for value in set(values)
            if normalized_edit_distance(query, value) < threshold
        }
        assert set(index.search(query, threshold)) == expected


# ----------------------------------------------------------------------
# XML round-trip
# ----------------------------------------------------------------------
xml_text_content = st.text(
    alphabet=string.ascii_letters + string.digits + " .,&<>'\"", max_size=15
)
tag_names = st.sampled_from(["a", "b", "item", "x-y", "n_1"])


@st.composite
def xml_elements(draw, depth=0):
    tag = draw(tag_names)
    element = Element(tag)
    attribute_count = draw(st.integers(0, 2))
    for index in range(attribute_count):
        element.attributes[f"at{index}"] = draw(xml_text_content)
    if depth < 2:
        child_count = draw(st.integers(0, 3))
        for _ in range(child_count):
            element.append(draw(xml_elements(depth=depth + 1)))
    if not element.children:
        text = draw(xml_text_content)
        if text:
            element.append(text)
    return element


class TestXMLRoundTripProperties:
    @given(xml_elements())
    @settings(max_examples=80, deadline=None)
    def test_compact_serialize_parse_identity(self, element):
        once = serialize(element, indent=None)
        reparsed = parse(once).root
        assert serialize(reparsed, indent=None) == once

    @given(xml_elements())
    @settings(max_examples=60, deadline=None)
    def test_pretty_preserves_structure_and_leaf_text(self, element):
        reparsed = parse(serialize(element)).root
        original_leaves = [
            (node.generic_path(), node.text)
            for node in element.iter()
            if not node.children
        ]
        reparsed_leaves = [
            (node.generic_path(), node.text)
            for node in reparsed.iter()
            if not node.children
        ]
        assert original_leaves == reparsed_leaves


# ----------------------------------------------------------------------
# Union-find / clustering
# ----------------------------------------------------------------------
class TestClusteringProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_clusters_partition(self, size, raw_pairs):
        pairs = [(a % size, b % size) for a, b in raw_pairs]
        uf = UnionFind(size)
        for a, b in pairs:
            uf.union(a, b)
        groups = uf.groups()
        members = sorted(m for g in groups for m in g)
        assert members == list(range(size))

    @given(
        st.integers(min_value=2, max_value=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
    )
    def test_pairs_end_in_same_cluster(self, size, raw_pairs):
        pairs = [(a % size, b % size) for a, b in raw_pairs if a % size != b % size]
        clusters = duplicate_clusters(pairs, size)
        membership = {}
        for index, cluster in enumerate(clusters):
            for member in cluster:
                membership[member] = index
        for a, b in pairs:
            assert membership[a] == membership[b]


# ----------------------------------------------------------------------
# Matching and similarity invariants
# ----------------------------------------------------------------------
def make_ods(values_a, values_b, extra):
    """Two ODs of one comparable kind plus a third corpus object."""
    od_a = od_from_pairs(0, [(v, "/d/r[1]/v") for v in values_a])
    od_b = od_from_pairs(1, [(v, "/d/r[2]/v") for v in values_b])
    od_c = od_from_pairs(2, [(v, "/d/r[3]/v") for v in extra])
    return [od_a, od_b, od_c]


class TestMatchingProperties:
    @given(
        st.lists(words, max_size=6),
        st.lists(words, max_size=6),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_is_complete_and_disjoint(self, left, right, theta):
        mapping = TypeMapping()
        od_a = od_from_pairs(0, [(v, "/d/r[1]/v") for v in left])
        od_b = od_from_pairs(1, [(v, "/d/r[2]/v") for v in right])
        result = match_tuples(od_a, od_b, CorpusIndex([od_a, od_b], mapping, theta))
        used_left = (
            [a for a, _ in result.similar]
            + [a for a, _ in result.contradictory]
            + result.non_specified_left
        )
        used_right = (
            [b for _, b in result.similar]
            + [b for _, b in result.contradictory]
            + result.non_specified_right
        )
        assert sorted(t.value for t in used_left) == sorted(left)
        assert sorted(t.value for t in used_right) == sorted(right)

    @given(
        st.lists(words, max_size=5),
        st.lists(words, max_size=5),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_similar_pairs_below_threshold(self, left, right, theta):
        mapping = TypeMapping()
        od_a = od_from_pairs(0, [(v, "/d/r[1]/v") for v in left])
        od_b = od_from_pairs(1, [(v, "/d/r[2]/v") for v in right])
        result = match_tuples(od_a, od_b, CorpusIndex([od_a, od_b], mapping, theta))
        for a, b in result.similar:
            assert normalized_edit_distance(a.value, b.value) < theta
        for a, b in result.contradictory:
            assert normalized_edit_distance(a.value, b.value) >= theta


class TestSimilarityProperties:
    @given(
        st.lists(words, min_size=1, max_size=5),
        st.lists(words, min_size=1, max_size=5),
        st.lists(words, min_size=1, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_symmetry(self, values_a, values_b, extra):
        ods = make_ods(values_a, values_b, extra)
        mapping = TypeMapping()
        index = CorpusIndex(ods, mapping, theta_tuple=0.3)
        similarity = DogmatixSimilarity(index)
        forward = similarity(ods[0], ods[1])
        backward = similarity(ods[1], ods[0])
        assert 0.0 <= forward <= 1.0
        assert abs(forward - backward) < 1e-9

    @given(st.lists(words, min_size=1, max_size=5), st.lists(words, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_kinds_score_zero(self, values_a, values_b):
        od_a = od_from_pairs(0, [(v, "/d/r[1]/x") for v in values_a])
        od_b = od_from_pairs(1, [(v, "/d/r[2]/y") for v in values_b])
        mapping = TypeMapping()
        index = CorpusIndex([od_a, od_b], mapping, theta_tuple=0.3)
        similarity = DogmatixSimilarity(index)
        assert similarity(od_a, od_b) == 0.0
