"""Edit distance tests: exact values, banding, thresholded checks."""

import pytest

from repro.strings import (
    edit_distance,
    ned_cached,
    normalized_edit_distance,
    within_normalized,
)


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("The Matrix", "Matrix", 4),
            ("abc", "cba", 2),
            ("a", "b", 1),
            ("ab", "ba", 2),  # plain Levenshtein: no transposition op
        ],
    )
    def test_known_values(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_symmetry(self):
        assert edit_distance("abcdef", "azced") == edit_distance("azced", "abcdef")

    def test_limit_reports_exact_when_within(self):
        assert edit_distance("kitten", "sitting", limit=3) == 3
        assert edit_distance("kitten", "sitting", limit=5) == 3

    def test_limit_caps_when_exceeded(self):
        assert edit_distance("kitten", "sitting", limit=2) == 3  # limit + 1
        assert edit_distance("aaaa", "bbbb", limit=1) == 2

    def test_limit_zero(self):
        assert edit_distance("same", "same", limit=0) == 0
        assert edit_distance("same", "same!", limit=0) == 1

    def test_length_gap_exceeding_limit(self):
        assert edit_distance("a", "abcdefgh", limit=3) == 4

    def test_empty_with_limit(self):
        assert edit_distance("", "abc", limit=1) == 2
        assert edit_distance("", "a", limit=1) == 1


class TestNormalized:
    def test_identical(self):
        assert normalized_edit_distance("x", "x") == 0.0

    def test_both_empty(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_normalization_by_longer(self):
        # ed("The Matrix", "Matrix") = 4, longest = 10
        assert normalized_edit_distance("The Matrix", "Matrix") == 0.4

    def test_completely_different(self):
        assert normalized_edit_distance("aaa", "bbb") == 1.0

    def test_range(self):
        assert 0.0 <= normalized_edit_distance("abc", "zbcd") <= 1.0

    def test_cached_agrees(self):
        for a, b in [("abc", "abd"), ("", "x"), ("Track 01", "Track 02")]:
            assert ned_cached(a, b) == normalized_edit_distance(a, b)
            assert ned_cached(b, a) == ned_cached(a, b)


class TestWithinNormalized:
    def test_strict_inequality(self):
        # ned("ab", "ac") = 0.5: not within threshold 0.5 (strict <)
        assert not within_normalized("ab", "ac", 0.5)
        assert within_normalized("ab", "ac", 0.51)

    def test_identical_within_any_positive(self):
        assert within_normalized("x", "x", 0.01)

    def test_zero_threshold_matches_nothing(self):
        assert not within_normalized("x", "x", 0.0)
        assert not within_normalized("", "", 0.0)

    def test_empty_strings(self):
        assert within_normalized("", "", 0.1)   # ned = 0
        assert not within_normalized("", "abcdefgh", 0.5)

    def test_paper_threshold_on_dids(self):
        # 8-char ids, one substitution: ned = 0.125 < 0.15, but not
        # below 0.125 itself (Definition 7's strict inequality)
        assert within_normalized("00a4f210", "00a4f211", 0.15)
        assert not within_normalized("00a4f210", "00a4f211", 0.125)
        # two substitutions: ned = 0.25
        assert not within_normalized("00a4f210", "00a4f233", 0.15)

    def test_agrees_with_direct_computation(self):
        cases = [
            ("Keanu Reeves", "Keanu Reewes"),
            ("Boston", "New York"),
            ("Los Angeles", "Boston"),
            ("1999", "2002"),
            ("", "a"),
        ]
        for threshold in (0.1, 0.15, 0.5, 0.72, 0.9):
            for a, b in cases:
                expected = normalized_edit_distance(a, b) < threshold
                assert within_normalized(a, b, threshold) == expected, (a, b, threshold)
