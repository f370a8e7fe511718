"""q-gram index tests: correctness against brute force."""

import random

import pytest

from repro.strings import QGramIndex, normalized_edit_distance, qgrams, strict_budget


class TestQGrams:
    def test_padded_bigrams(self):
        grams = qgrams("ab", q=2)
        assert len(grams) == 3  # \0a, ab, b\0
        assert grams[1] == "ab"

    def test_unigrams(self):
        assert qgrams("abc", q=1) == ["a", "b", "c"]

    def test_empty_string(self):
        assert qgrams("", q=2) == ["\x00\x00"]

    def test_bad_q(self):
        with pytest.raises(ValueError):
            qgrams("x", q=0)


class TestStrictBudget:
    def test_strictness(self):
        # ned < 0.15 on 8 chars means ed <= 1 (1.2 rounds down)
        assert strict_budget(0.15, 8) == 1
        # ned < 0.25 on 8 chars means ed <= 1 (2.0 exact -> strictly below)
        assert strict_budget(0.25, 8) == 1
        assert strict_budget(0.5, 8) == 3
        assert strict_budget(0.0, 8) == -1


class TestQGramIndex:
    def test_add_idempotent(self):
        index = QGramIndex()
        first = index.add("abc")
        second = index.add("abc")
        assert first == second
        assert len(index) == 1

    def test_contains(self):
        index = QGramIndex()
        index.add("abc")
        assert "abc" in index
        assert "xyz" not in index

    def test_exact_match_found(self):
        index = QGramIndex()
        index.add("hello")
        assert index.search("hello", 0.15) == ["hello"]

    def test_near_match_found(self):
        index = QGramIndex()
        index.add("Track 01")
        index.add("Track 02")
        index.add("Completely different")
        assert set(index.search("Track 01", 0.15)) == {"Track 01", "Track 02"}

    def test_unindexed_query(self):
        index = QGramIndex()
        index.add("hello")
        assert index.search("hallo", 0.3) == ["hello"]

    def test_zero_threshold_only_exact(self):
        index = QGramIndex()
        index.add("abc")
        index.add("abd")
        assert index.search("abc", 0.0) == ["abc"]

    def test_repeated_character_strings(self):
        # Multiset counting: "aaaa" shares few *distinct* grams.
        index = QGramIndex()
        index.add("aaaa")
        index.add("aaab")
        assert set(index.search("aaaa", 0.3)) == {"aaaa", "aaab"}

    @pytest.mark.parametrize("threshold", [0.15, 0.3, 0.5, 0.8])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_brute_force(self, threshold, q):
        rng = random.Random(42)
        values = {
            "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 9)))
            for _ in range(150)
        }
        index = QGramIndex(q=q)
        for value in values:
            index.add(value)
        for query in list(values)[:40]:
            expected = {
                value
                for value in values
                if normalized_edit_distance(query, value) < threshold
            }
            assert set(index.search(query, threshold)) == expected

    def test_statistics_counted(self):
        index = QGramIndex()
        index.add("abcdef")
        index.add("abcdex")
        index.search("abcdef", 0.2)
        assert index.probes == 1
        assert index.verifications >= 1
