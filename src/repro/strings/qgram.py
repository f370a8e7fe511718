"""q-gram index for edit-distance similarity search.

Scoring every pair of distinct values per real-world type is quadratic;
the classic database trick is count filtering on q-grams: strings within
edit distance ``d`` share at least

    max(|a|, |b|) + q - 1 - q * d

padded q-grams, counted with multiset semantics (Gravano et al., VLDB
2001).  The index buckets q-grams of every registered value; a probe
merges the buckets of the query's q-grams, applies length and count
filters, and verifies survivors with the banded dynamic program.

DogmatiX uses this to build, per real-world type, groups of mutually
similar values that drive both the inverted-index pair generation and
the object filter.

Soundness notes:

* the count filter is applied on exact multiset intersections of the
  stored gram counters, not on distinct-gram bucket hits;
* when the threshold is so large that the required shared-gram count
  can drop to zero for some candidate length, candidate gathering falls
  back to scanning the affected length classes, so no true match is
  ever filtered out (property-tested against brute force).
"""

from __future__ import annotations

from collections import Counter

from .value_index import ValueIndex, qgrams, strict_budget


class QGramIndex(ValueIndex):
    """Count + length filtering over gram buckets (the oracle strategy)."""

    strategy = "qgram"
    _with_buckets = True

    def _candidates(self, query: str, threshold: float) -> set[int]:
        """Candidate ids passing the length and count filters."""
        state = self._state
        values = self._values
        length_q = len(query)
        query_pairs = state.query_pairs(Counter(qgrams(query, self.q)))
        candidates: set[int] = set()

        # Bucket gathering with exact multiset count filtering.
        for value_id in state.gather(query_pairs):
            length = len(values[value_id])
            longest = max(length_q, length)
            budget = strict_budget(threshold, longest)
            if budget < 0 or abs(length_q - length) > budget:
                continue
            required = longest + self.q - 1 - self.q * budget
            if required > 0 and state.overlap(value_id, query_pairs) < required:
                continue
            candidates.add(value_id)

        # Degenerate lengths: the required count can reach zero, meaning
        # a match might share no grams at all; scan those length classes.
        for length, ids in state.length_classes():
            longest = max(length_q, length)
            budget = strict_budget(threshold, longest)
            if budget < 0 or abs(length_q - length) > budget:
                continue
            required = longest + self.q - 1 - self.q * budget
            if required <= 0:
                candidates.update(ids)
        return candidates
