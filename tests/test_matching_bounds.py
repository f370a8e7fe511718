"""Laziness and parity of the bounds-tiered tuple matching.

``_match_kind`` promises cheap-first evaluation: without an index to
read the verdict from (the case here; with one,
``tests/test_core_similarity.py``), the O(n) distance bounds decide
which side of ``theta_tuple`` a pair falls on, and the
O(n·m) edit-distance DP runs only for pairs the bounds cannot separate
— plus, lazily, for pairs whose *order* matters (who matches whom).
Pinned here:

* bounds-decidable pairs never touch the DP (this failed before the
  rewrite: the old code eagerly built the full distance table);
* undecidable pairs still verify exactly;
* the output — similar, contradictory, non-specified, including list
  *order* (the parity contract sums floats in list order) — is
  bit-identical to the old eager reference algorithm, re-implemented
  inline, under randomized fuzzing.
"""

from __future__ import annotations

import random

import pytest

import repro.core.matching as matching_module
from repro.core.matching import TupleMatching, _match_kind
from repro.framework import ODTuple
from repro.strings import ned_cached


@pytest.fixture()
def counting_ned(monkeypatch):
    """Route ``_match_kind``'s DP calls through a counter."""
    calls: list[tuple[str, str]] = []

    def counting(a: str, b: str) -> float:
        calls.append((a, b))
        return ned_cached(a, b)

    monkeypatch.setattr(matching_module, "ned_cached", counting)
    return calls


def _kind(left, right, theta, semantics="matching"):
    result = TupleMatching()
    _match_kind(
        "k",
        [ODTuple(v, "k") for v in left],
        [ODTuple(v, "k") for v in right],
        theta,
        result,
        semantics,
    )
    return result


class TestLaziness:
    def test_bound_decided_dissimilar_pair_skips_the_dp(self, counting_ned):
        # Disjoint alphabets: the bag-distance lower bound alone proves
        # ned >= 1.0 >= theta; one pair needs no ordering either.
        result = _kind(["aaaaaaaa"], ["bbbbbbbb"], 0.5)
        assert [(l.value, r.value) for l, r in result.contradictory] == [
            ("aaaaaaaa", "bbbbbbbb")
        ]
        assert counting_ned == []

    def test_bound_decided_similar_pair_skips_the_dp(self, counting_ned):
        # Equal values: the upper bound is 0 < theta.
        result = _kind(["same title"], ["same title"], 0.15)
        assert [(l.value, r.value) for l, r in result.similar] == [
            ("same title", "same title")
        ]
        assert counting_ned == []

    def test_undecidable_pair_still_verifies_exactly(self, counting_ned):
        # Reversal: bag distance 0 (lower bound misses) but hamming 4/5
        # (upper bound misses), so only the DP can decide.
        result = _kind(["abcde"], ["edcba"], 0.5)
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
        result = _kind(["abab", "abba"], ["abab", "zzzzzzzzzz"], 0.6)
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
            left = [ODTuple(value(), "k") for _ in range(rng.randint(0, 5))]
            right = [ODTuple(value(), "k") for _ in range(rng.randint(0, 5))]
            theta = rng.choice([0.0, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0])
            semantics = rng.choice(["matching", "all-pairs"])
            got, want = TupleMatching(), TupleMatching()
            _match_kind("k", left, right, theta, got, semantics)
            _reference_match_kind(left, right, theta, want, semantics)
            assert got == want, (
                f"diverged from the eager reference at theta={theta} "
                f"semantics={semantics} left={[o.value for o in left]} "
                f"right={[o.value for o in right]}"
            )
