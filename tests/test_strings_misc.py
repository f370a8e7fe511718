"""Jaro/Jaro-Winkler and tokenization tests."""

import pytest

from repro.strings import (
    jaro,
    jaro_winkler,
    normalize,
    overlap,
    tokens,
)


class TestJaro:
    def test_identical(self):
        assert jaro("same", "same") == 1.0

    def test_completely_different(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "x") == 0.0
        assert jaro("", "") == 1.0  # equal strings

    def test_known_value_martha(self):
        assert jaro("MARTHA", "MARHTA") == pytest.approx(0.9444, abs=1e-4)

    def test_known_value_dixon(self):
        assert jaro("DIXON", "DICKSONX") == pytest.approx(0.7667, abs=1e-4)

    def test_symmetry(self):
        assert jaro("DWAYNE", "DUANE") == jaro("DUANE", "DWAYNE")

    def test_range(self):
        for a, b in [("ab", "ba"), ("night", "natch"), ("x", "xx")]:
            assert 0.0 <= jaro(a, b) <= 1.0


class TestJaroWinkler:
    def test_prefix_boost(self):
        assert jaro_winkler("MARTHA", "MARHTA") > jaro("MARTHA", "MARHTA")

    def test_known_value(self):
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-4)

    def test_no_boost_without_common_prefix(self):
        assert jaro_winkler("XMARTHA", "MARHTA") == jaro("XMARTHA", "MARHTA")

    def test_prefix_capped_at_four(self):
        base = jaro("abcdefgh", "abcdefxy")
        assert jaro_winkler("abcdefgh", "abcdefxy") == pytest.approx(
            base + 4 * 0.1 * (1 - base)
        )

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    def test_stays_in_range(self):
        assert jaro_winkler("aaaa", "aaaa", prefix_scale=0.25) == 1.0


class TestNormalize:
    def test_casefold(self):
        assert normalize("HeLLo") == "hello"

    def test_whitespace_collapse(self):
        assert normalize("  a\t b \n c ") == "a b c"

    def test_diacritics_stripped(self):
        assert normalize("Müller café") == "muller cafe"


class TestTokens:
    def test_word_split(self):
        assert tokens("The Matrix, 1999!") == ["the", "matrix", "1999"]

    def test_empty(self):
        assert tokens("") == []
        assert tokens("!!!") == []

    def test_alphanumeric_kept_together(self):
        assert tokens("abc123 x") == ["abc123", "x"]


class TestSetSimilarities:
    def test_overlap(self):
        assert overlap("a b c d", "a b") == 1.0
        assert overlap("", "x") == 0.0

    def test_case_insensitive(self):
        assert overlap("The Matrix", "the MATRIX") == 1.0
