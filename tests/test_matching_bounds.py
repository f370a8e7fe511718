"""Laziness and parity of step 5's per-kind tuple matching.

``_match_kind`` reads which side of θ_tuple a pair falls on from the
index's similar-value groups, and measures an edit distance itself only
where the index holds neither value — plus, lazily, for pairs whose
*order* matters (who matches whom).  Pinned here, against an index over
the two sides (or, where said, over values neither side holds):

* a pair the groups decide never touches the DP, whatever the distance
  bounds could have told;
* a pair of values the index does not hold is measured exactly;
* the output — similar, contradictory, non-specified, including list
  *order* (the parity contract sums floats in list order) — is
  bit-identical to the old eager reference algorithm, re-implemented
  inline, under randomized fuzzing.
"""

from __future__ import annotations

import random

import pytest

import repro.core.matching as matching_module
from repro.core import CorpusIndex
from repro.core.matching import TupleMatching, _match_kind
from repro.framework import ODTuple, TypeMapping, od_from_pairs
from repro.strings import ned_cached

#: The one kind's path; unmapped, so it is its own comparison key.
PATH = "/r/o/k"


@pytest.fixture()
def counting_ned(monkeypatch):
    """Route ``_match_kind``'s DP calls through a counter."""
    calls: list[tuple[str, str]] = []

    def counting(a: str, b: str) -> float:
        calls.append((a, b))
        return ned_cached(a, b)

    monkeypatch.setattr(matching_module, "ned_cached", counting)
    return calls


def _match(left, right, theta, semantics="matching", held=True):
    """``_match_kind`` over one kind, against an index over the two
    sides when ``held``, else over one value neither side holds."""
    one = od_from_pairs(0, [(value, PATH) for value in left])
    other = od_from_pairs(1, [(value, PATH) for value in right])
    corpus = [one, other] if held else [od_from_pairs(2, [("unheld", PATH)])]
    index = CorpusIndex(corpus, TypeMapping(), theta)
    index.freeze()
    result = TupleMatching()
    _match_kind(
        index.key_of(PATH), one.tuples, other.tuples, result, semantics, index
    )
    return result


class TestLaziness:
    def test_bound_decided_dissimilar_pair_skips_the_dp(self, counting_ned):
        # Disjoint alphabets: the bag-distance lower bound alone proves
        # ned >= 1.0 >= theta; one pair needs no ordering either.
        result = _match(["aaaaaaaa"], ["bbbbbbbb"], 0.5)
        assert [(l.value, r.value) for l, r in result.contradictory] == [
            ("aaaaaaaa", "bbbbbbbb")
        ]
        assert counting_ned == []

    def test_bound_decided_similar_pair_skips_the_dp(self, counting_ned):
        # Equal values: the upper bound is 0 < theta.
        result = _match(["same title"], ["same title"], 0.15)
        assert [(l.value, r.value) for l, r in result.similar] == [
            ("same title", "same title")
        ]
        assert counting_ned == []

    def test_pair_no_bound_decides_is_read_from_the_groups(self, counting_ned):
        # Reversal: bag distance 0 (lower bound misses) but hamming 4/5
        # (upper bound misses); the groups decide it all the same.
        result = _match(["abcde"], ["edcba"], 0.5)
        assert counting_ned == []
        exact = ned_cached("abcde", "edcba")
        expected = "similar" if exact < 0.5 else "contradictory"
        bucket = getattr(result, expected)
        assert [(l.value, r.value) for l, r in bucket] == [("abcde", "edcba")]

    def test_values_the_index_does_not_hold_are_measured(self, counting_ned):
        result = _match(["abcde"], ["edcba"], 0.5, held=False)
        assert counting_ned == [("abcde", "edcba")]
        exact = ned_cached("abcde", "edcba")
        expected = "similar" if exact < 0.5 else "contradictory"
        bucket = getattr(result, expected)
        assert [(l.value, r.value) for l, r in bucket] == [("abcde", "edcba")]

    def test_ordering_computes_distances_only_for_contenders(
        self, counting_ned
    ):
        # Two similar pairs share an endpoint: the one-to-one matching
        # needs their exact order, so both DP — but the bound-decided
        # dissimilar leftovers still never do.
        result = _match(["abab", "abba"], ["abab", "zzzzzzzzzz"], 0.6)
        assert set(counting_ned) >= {("abab", "abab"), ("abba", "abab")}
        assert all("z" not in a and "z" not in b for a, b in counting_ned)
        assert [(l.value, r.value) for l, r in result.similar] == [
            ("abab", "abab")
        ]


def _reference_match_kind(left, right, theta, result, semantics="matching"):
    """The pre-rewrite eager algorithm, verbatim."""
    distances = []
    for a, odt_a in enumerate(left):
        for b, odt_b in enumerate(right):
            distances.append((ned_cached(odt_a.value, odt_b.value), a, b))
    distances.sort(key=lambda item: (item[0], item[1], item[2]))
    used_left, used_right = set(), set()
    if semantics == "all-pairs":
        for distance, a, b in distances:
            if distance >= theta:
                break
            used_left.add(a)
            used_right.add(b)
            result.similar.append((left[a], right[b]))
    else:
        for distance, a, b in distances:
            if distance >= theta:
                break
            if a in used_left or b in used_right:
                continue
            used_left.add(a)
            used_right.add(b)
            result.similar.append((left[a], right[b]))
    for distance, a, b in reversed(distances):
        if distance < theta:
            break
        if a in used_left or b in used_right:
            continue
        used_left.add(a)
        used_right.add(b)
        result.contradictory.append((left[a], right[b]))
    result.non_specified_left.extend(
        odt for index, odt in enumerate(left) if index not in used_left
    )
    result.non_specified_right.extend(
        odt for index, odt in enumerate(right) if index not in used_right
    )


class TestEagerReferenceParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_bit_identical_to_eager_reference(self, seed):
        rng = random.Random(990 + seed)
        alphabet = "abcdeü ß.0"

        def value() -> str:
            return "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 12))
            )

        for _ in range(400):
            left = [value() for _ in range(rng.randint(0, 5))]
            right = [value() for _ in range(rng.randint(0, 5))]
            theta = rng.choice([0.0, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0])
            semantics = rng.choice(["matching", "all-pairs"])
            held = rng.random() < 0.75
            got = _match(left, right, theta, semantics, held)
            want = TupleMatching()
            _reference_match_kind(
                [ODTuple(v, PATH) for v in left],
                [ODTuple(v, PATH) for v in right],
                theta,
                want,
                semantics,
            )
            assert got == want, (
                f"diverged from the eager reference at theta={theta} "
                f"semantics={semantics} held={held} left={left} right={right}"
            )
