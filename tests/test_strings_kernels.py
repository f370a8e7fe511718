"""Differential tests for the two kernels under every ``ned < θ`` check.

* the bit-parallel ``edit_distance`` against the textbook dynamic
  programs in ``tests/reference/dp_levenshtein.py`` — any Unicode, empty
  strings, lengths around the 64-bit word boundary and far past it,
  every ``limit``;
* the gram state's ``accumulate`` against a brute ``Σ min`` over every
  stored value;
* whole searches on generated Dataset 1 / Dataset 3 values against the
  bucket-union-then-filter candidate generation in
  ``tests/reference/overlap_candidates.py``: same lists in the same
  order, same ``probes`` and ``verifications``, single-threaded and from
  eight reader threads on one index;
* the one spelling of ``ned < θ`` (:func:`strict_budget`) wherever a
  filter and a classifier could disagree.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from reference import dp_levenshtein
from reference.overlap_candidates import OverlapQGramIndex

from repro.api import Corpus, DetectionSession
from repro.core import CorpusIndex, match_tuples
from repro.eval import build_dataset1, build_dataset3
from repro.framework import TypeMapping, od_from_pairs
from repro.strings import (
    QGramIndex,
    edit_distance,
    ned_cached,
    normalized_edit_distance,
    qgrams,
    strict_budget,
    within_normalized,
)

# ----------------------------------------------------------------------
# Edit distance: kernel vs the dynamic programs
# ----------------------------------------------------------------------
#: Few symbols so that random strings align often: ASCII, a combining
#: acute (U+0301), a precomposed é, and two astral characters.
MIXED_ALPHABET = "ab \u0301\u00e9\U0001F600\U00010348"

any_unicode = st.text(max_size=24)
mixed = st.text(alphabet=MIXED_ALPHABET, max_size=40)
word_boundary = st.text(alphabet="abc", min_size=60, max_size=68)
limits = st.integers(min_value=0, max_value=80)


def check_against_oracle(a: str, b: str, limit: int) -> None:
    exact = dp_levenshtein.edit_distance(a, b)
    assert edit_distance(a, b) == exact
    assert edit_distance(b, a) == exact
    capped = min(exact, limit + 1)
    assert edit_distance(a, b, limit) == capped
    assert edit_distance(b, a, limit) == capped
    assert dp_levenshtein.edit_distance(a, b, limit) == capped


class TestKernelAgainstOracle:
    @given(any_unicode, any_unicode, limits)
    def test_arbitrary_unicode(self, a, b, limit):
        check_against_oracle(a, b, limit)

    @given(mixed, mixed, limits)
    def test_astral_and_combining_characters(self, a, b, limit):
        check_against_oracle(a, b, limit)

    @given(word_boundary, word_boundary, limits)
    @settings(max_examples=40)
    def test_lengths_around_one_machine_word(self, a, b, limit):
        check_against_oracle(a, b, limit)

    @pytest.mark.parametrize("shorter", [0, 1, 62, 63, 64, 65, 66, 127, 128, 129])
    @pytest.mark.parametrize("longer", [63, 64, 65, 130])
    def test_every_length_pair_across_the_boundaries(self, shorter, longer):
        rng = random.Random(shorter * 1000 + longer)
        a = "".join(rng.choice("abcd") for _ in range(shorter))
        b = "".join(rng.choice("abcd") for _ in range(longer))
        for limit in (0, 1, 7, abs(longer - shorter), 64, 200):
            check_against_oracle(a, b, limit)

    @pytest.mark.parametrize("length", [301, 420])
    def test_beyond_three_hundred(self, length):
        rng = random.Random(length)
        a = "".join(rng.choice("abcdefg ") for _ in range(length))
        edited = list(a)
        for _ in range(length // 9):
            position = rng.randrange(len(edited))
            edited[position : position + 1] = rng.choice(["", "x", "xy"])
        b = "".join(edited)
        for limit in (0, 10, length // 9, 2 * length):
            check_against_oracle(a, b, limit)
        check_against_oracle(a, a[::-1], length // 2)

    def test_pattern_longer_than_the_text_alphabet(self):
        # no character of one string occurs in the other: every column
        # has an all-zero match vector
        assert edit_distance("a" * 70, "b" * 65) == 70
        assert edit_distance("a" * 70, "b" * 65, limit=69) == 70
        assert edit_distance("a" * 70, "b" * 65, limit=4) == 5

    def test_empty_operands(self):
        for limit in (0, 1, 5):
            check_against_oracle("", "", limit)
            check_against_oracle("", "abc", limit)
            check_against_oracle("\U0001F600", "", limit)


# ----------------------------------------------------------------------
# accumulate: one bucket walk vs a brute sum over every stored value
# ----------------------------------------------------------------------
def brute_overlaps(values: list[str], query: str, q: int) -> dict[int, int]:
    query_grams = Counter(qgrams(query, q))
    overlaps = {}
    for value_id, value in enumerate(values):
        stored = Counter(qgrams(value, q))
        shared = sum(min(count, stored[gram]) for gram, count in query_grams.items())
        if shared:
            overlaps[value_id] = shared
    return overlaps


def accumulated(index: QGramIndex, query: str) -> dict[int, int]:
    return dict(index._scan_count(Counter(qgrams(query, index.q))))


#: Two-letter alphabet: nearly every gram repeats inside a value.
repetitive = st.text(alphabet="ab", max_size=12)


class TestAccumulate:
    @given(
        st.lists(repetitive, max_size=12),
        st.lists(repetitive, min_size=1, max_size=4),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=120)
    def test_equals_brute_sum_of_minima(self, stored, queries, q):
        index = QGramIndex(q=q)
        for value in stored:
            index.add(value)
        values = index.values
        expected = {query: brute_overlaps(values, query, q) for query in queries}
        for query in queries:
            assert accumulated(index, query) == expected[query]

    def test_repeated_query_gram_takes_the_minimum(self):
        index = QGramIndex(q=1)
        for value in ["a", "aa", "aaaa", "b", "ab"]:
            index.add(value)
        # query holds "a" three times: min(3, stored) per value
        assert accumulated(index, "aaa") == {0: 1, 1: 2, 2: 3, 4: 1}

    def test_unseen_grams_contribute_nothing(self):
        index = QGramIndex()
        index.add("abc")
        assert accumulated(index, "xyz") == {}


# ----------------------------------------------------------------------
# Whole searches on real value shapes
# ----------------------------------------------------------------------
PARITY_THRESHOLDS = (0.05, 0.15, 0.3, 0.6)


def values_per_key(dataset) -> dict[str, list[str]]:
    """The distinct values of each comparison key, in corpus order."""
    session = DetectionSession(
        Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
    )
    per_key: dict[str, dict[str, None]] = {}
    for od in session.ods:
        for odt in od.tuples:
            key = dataset.mapping.comparison_key(odt.name)
            per_key.setdefault(key, {})[odt.value] = None
    return {key: list(values) for key, values in per_key.items()}


@pytest.fixture(scope="module", params=["dataset1", "dataset3"])
def corpus_values(request) -> dict[str, list[str]]:
    if request.param == "dataset1":
        return values_per_key(build_dataset1(base_count=75, seed=7))
    return values_per_key(build_dataset3(count=150, seed=7))


def filled(index_class, values: list[str]):
    index = index_class()
    for value in values:
        index.add(value)
    return index


def search_everything(index, values) -> list[list[str]]:
    return [
        index.search(value, threshold)
        for threshold in PARITY_THRESHOLDS
        for value in values
    ]


class TestSearchParityOnGeneratedCorpora:
    def test_lists_and_counters_equal_the_oracle(self, corpus_values):
        assert corpus_values
        for key, values in corpus_values.items():
            index = filled(QGramIndex, values)
            oracle = filled(OverlapQGramIndex, values)
            assert search_everything(index, values) == search_everything(
                oracle, values
            ), key
            assert index.probes == oracle.probes, key
            assert index.verifications == oracle.verifications, key

    def test_eight_readers_on_one_index(self, corpus_values):
        """The lock-free ``match()`` contract: ``accumulate`` keeps all
        its state local, so concurrent probes of one index return the
        single-threaded lists."""
        key, values = max(corpus_values.items(), key=lambda item: len(item[1]))
        index = filled(QGramIndex, values)
        expected = search_everything(index, values)
        results: list = [None] * 8
        errors: list[Exception] = []

        def reader(slot: int) -> None:
            try:
                results[slot] = search_everything(index, values)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(result == expected for result in results), key


# ----------------------------------------------------------------------
# One spelling of ned < θ
# ----------------------------------------------------------------------
class TestOneSpellingOfTheThreshold:
    #: θ · longest = 0.14 · 50 rounds up to 7.000000000000001 while
    #: 7 / 50 == 0.14 exactly: ed = 7 is *not* below the threshold.
    LEFT = "a" * 50
    RIGHT = "a" * 43 + "b" * 7
    THETA = 0.14

    def test_the_pair_sits_on_the_threshold(self):
        assert self.THETA * 50 > 7
        assert edit_distance(self.LEFT, self.RIGHT) == 7
        assert normalized_edit_distance(self.LEFT, self.RIGHT) == self.THETA

    def test_within_normalized_agrees_with_the_division(self):
        assert not within_normalized(self.LEFT, self.RIGHT, self.THETA)
        assert not within_normalized(self.RIGHT, self.LEFT, self.THETA)

    def test_searches_agree_with_the_division(self):
        index = filled(QGramIndex, [self.LEFT, self.RIGHT])
        assert index.search(self.LEFT, self.THETA) == [self.LEFT]
        assert index.search(self.RIGHT, self.THETA) == [self.RIGHT]

    def test_match_tuples_agrees_with_the_filter(self):
        mapping = TypeMapping()
        mapping.add("T", ["/r/o/t"])
        left = od_from_pairs(0, [(self.LEFT, "/r/o/t")])
        right = od_from_pairs(1, [(self.RIGHT, "/r/o/t")])
        index = CorpusIndex([left, right], mapping, self.THETA)
        matching = match_tuples(left, right, index)
        assert matching.similar == []
        assert [(a.value, b.value) for a, b in matching.contradictory] == [
            (self.LEFT, self.RIGHT)
        ]

    def test_budget_is_the_largest_distance_the_division_admits(self):
        rounded_up = set()
        for hundredths in range(0, 101):
            threshold = hundredths / 100
            for longest in range(1, 301):
                budget = strict_budget(threshold, longest)
                assert budget < 0 or budget / longest < threshold
                assert (budget + 1) / longest >= threshold
                product = threshold * longest
                floor_below_product = int(product) - (int(product) == product)
                if budget != floor_below_product:
                    # the product rounded up across an integer
                    assert budget == floor_below_product - 1
                    rounded_up.add((threshold, longest))
        assert (self.THETA, 50) in rounded_up
        assert len(rounded_up) == 40
        assert not any(threshold == 0.15 for threshold, _ in rounded_up)

    # ``QGramIndex.search`` settles a candidate with the memoized
    # distance, everything else that only needs the side of the
    # threshold with ``within_normalized``: one verdict, two spellings.
    @staticmethod
    def check_both_spellings(a: str, b: str, threshold: float) -> None:
        verdict = within_normalized(a, b, threshold)
        assert (ned_cached(a, b) < threshold) == verdict
        assert (ned_cached(b, a) < threshold) == verdict

    @given(any_unicode, any_unicode, st.integers(0, 100))
    def test_memoized_distance_agrees_on_arbitrary_unicode(self, a, b, hundredths):
        self.check_both_spellings(a, b, hundredths / 100)

    @given(word_boundary, word_boundary, st.integers(0, 100))
    @settings(max_examples=40)
    def test_memoized_distance_agrees_around_one_machine_word(
        self, a, b, hundredths
    ):
        self.check_both_spellings(a, b, hundredths / 100)

    def test_memoized_distance_agrees_at_every_budget_edge(self):
        # (0.14, 50), the rounded-up product above, is among them
        for hundredths in range(0, 101):
            threshold = hundredths / 100
            for longest in range(1, 71):
                budget = strict_budget(threshold, longest)
                for distance in (budget, budget + 1):
                    if 0 <= distance <= longest:
                        self.check_both_spellings(
                            "a" * longest,
                            "a" * (longest - distance) + "b" * distance,
                            threshold,
                        )
        self.check_both_spellings("", "", 0.0)
        self.check_both_spellings("", "", 0.15)

    def test_budget_edges(self):
        assert strict_budget(0.0, 8) == -1
        assert strict_budget(-0.5, 8) < 0
        assert strict_budget(0.15, 0) == 0  # ned("", "") = 0 < θ
        assert strict_budget(0.0, 0) == -1
        assert strict_budget(1.0, 8) == 7
        assert strict_budget(2.0, 8) == 15
