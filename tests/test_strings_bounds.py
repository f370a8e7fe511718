"""Edit-distance bound tests."""

import random
from collections import Counter

import pytest

from repro.strings import (
    BoundedMatcher,
    bag_distance,
    bound_verdict,
    bounds,
    edit_distance,
    edit_distance_lower_bound,
    edit_distance_upper_bound,
    length_lower_bound,
    normalized_edit_distance,
    normalized_lower_bound,
    normalized_upper_bound,
)

CASES = [
    ("", ""),
    ("a", ""),
    ("abc", "abc"),
    ("abc", "cab"),
    ("kitten", "sitting"),
    ("Track 01", "Track 02"),
    ("The Matrix", "Matrix"),
    ("aabbcc", "abc"),
    ("xyz", "abcdefgh"),
    ("mississippi", "misisipi"),
]


class TestLowerBounds:
    @pytest.mark.parametrize("a,b", CASES)
    def test_length_bound_holds(self, a, b):
        assert length_lower_bound(a, b) <= edit_distance(a, b)

    @pytest.mark.parametrize("a,b", CASES)
    def test_bag_bound_holds(self, a, b):
        assert bag_distance(a, b) <= edit_distance(a, b)

    @pytest.mark.parametrize("a,b", CASES)
    def test_combined_bound_holds(self, a, b):
        assert edit_distance_lower_bound(a, b) <= edit_distance(a, b)

    def test_bag_distance_values(self):
        assert bag_distance("abc", "cab") == 0     # same multiset
        assert bag_distance("aab", "abb") == 1
        assert bag_distance("abc", "xyz") == 3

    def test_bag_tighter_than_length_sometimes(self):
        # Same length, disjoint characters: length bound is 0, bag is 3.
        assert length_lower_bound("abc", "xyz") == 0
        assert bag_distance("abc", "xyz") == 3


def reference_bag_distance(a: str, b: str) -> int:
    """Bag distance by ``Counter`` subtraction: the definition, kept
    here as the reference the memoised implementation must equal."""
    counts_a, counts_b = Counter(a), Counter(b)
    only_a = sum((counts_a - counts_b).values())
    only_b = sum((counts_b - counts_a).values())
    return max(only_a, only_b)


def reference_lower_bound(a: str, b: str) -> int:
    return max(abs(len(a) - len(b)), reference_bag_distance(a, b))


def reference_normalized_lower_bound(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    return reference_lower_bound(a, b) / longest if longest else 0.0


def reference_verdict(a: str, b: str, threshold: float):
    """The three tiers, lower bound first, each computed in full."""
    if reference_normalized_lower_bound(a, b) >= threshold:
        return False
    if normalized_upper_bound(a, b) < threshold:
        return True
    return None


def string_pool(seed: int) -> list[str]:
    """Empty, repetitive, ASCII and non-ASCII strings; every pair of
    the pool is compared, so each memoised bag is read many times."""
    rng = random.Random(seed)
    alphabets = ["ab", "abcdefgh 0123", "äöüßéñ", "日本語テキスト", "a\U0001F600\u0301b"]
    pool = ["", "", "a", "aaaa", "Track 01", "Track 02"]
    for alphabet in alphabets:
        for _ in range(8):
            length = rng.randrange(0, 14)
            pool.append("".join(rng.choice(alphabet) for _ in range(length)))
    return pool


class TestAgainstCounterReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lower_bounds_equal_the_reference(self, seed):
        pool = string_pool(seed)
        for a in pool:
            for b in pool:
                assert bag_distance(a, b) == reference_bag_distance(a, b)
                assert edit_distance_lower_bound(a, b) == reference_lower_bound(a, b)
                assert normalized_lower_bound(a, b) == (
                    reference_normalized_lower_bound(a, b)
                )

    @pytest.mark.parametrize("threshold", [0.0, 0.15, 0.5, 0.55, 1.0])
    def test_verdict_equals_the_three_tiers(self, threshold):
        pool = string_pool(4)
        for a in pool:
            for b in pool:
                assert bound_verdict(a, b, threshold) == (
                    reference_verdict(a, b, threshold)
                ), (a, b)

    def test_bag_memo_is_bounded(self):
        capacity = bounds._char_bag.cache_info().maxsize
        assert capacity is not None
        for number in range(capacity + 500):
            bag_distance(f"value {number}", "probe")
        assert bounds._char_bag.cache_info().currsize <= capacity
        # Evicted and re-counted bags answer as before.
        assert bag_distance("value 0", "probe") == (
            reference_bag_distance("value 0", "probe")
        )


class TestUpperBound:
    @pytest.mark.parametrize("a,b", CASES)
    def test_upper_bound_holds(self, a, b):
        assert edit_distance(a, b) <= edit_distance_upper_bound(a, b)

    def test_exact_for_equal(self):
        assert edit_distance_upper_bound("same", "same") == 0

    def test_exact_for_prefix(self):
        assert edit_distance_upper_bound("abc", "abcdef") == 3

    @pytest.mark.parametrize("a,b", CASES)
    def test_normalized_bounds_sandwich(self, a, b):
        ned = normalized_edit_distance(a, b)
        assert normalized_lower_bound(a, b) <= ned <= normalized_upper_bound(a, b)


class TestBoundedMatcher:
    def test_agrees_with_direct(self):
        matcher = BoundedMatcher(0.3)
        for a, b in CASES:
            assert matcher.matches(a, b) == (normalized_edit_distance(a, b) < 0.3)

    def test_statistics_accumulate(self):
        matcher = BoundedMatcher(0.15)
        matcher.matches("identical", "identical")     # upper bound accept
        matcher.matches("abc", "xyz")                  # lower bound reject
        assert matcher.total_checks == 2
        assert matcher.upper_bound_accepts >= 1
        assert matcher.lower_bound_rejects >= 1

    def test_savings_fraction(self):
        matcher = BoundedMatcher(0.15)
        assert matcher.savings() == 0.0
        matcher.matches("aaa", "zzz")
        assert matcher.savings() == 1.0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            BoundedMatcher(1.5)
