"""q-gram index for edit-distance similarity search.

Scoring every pair of distinct values per real-world type is quadratic;
the classic database trick is count filtering on q-grams: strings within
edit distance ``d`` share at least

    max(|a|, |b|) + q - 1 - q * d

padded q-grams, counted with multiset semantics (Gravano et al., VLDB
2001).  The index buckets q-grams of every registered value; a probe
walks the bucket of each of its q-grams once, accumulating every stored
value's shared-gram count on the way (``accumulate``), then keeps the
values whose length class passes the length filter and whose count
reaches that class's requirement, and verifies the survivors with the
edit-distance kernel.

DogmatiX uses this to build, per real-world type, groups of mutually
similar values that drive both the inverted-index pair generation and
the object filter.

Soundness notes:

* the count filter is applied on exact multiset intersections of the
  stored gram counters, not on distinct-gram bucket hits;
* when the threshold is so large that the required shared-gram count
  can drop to zero for some candidate length, candidate generation
  falls back to scanning the affected length classes, so no true match
  is ever filtered out (property-tested against brute force).
"""

from __future__ import annotations

from collections import Counter

from .levenshtein import strict_budget
from .value_index import ValueIndex, qgrams


class QGramIndex(ValueIndex):
    """Count + length filtering over gram buckets (the oracle strategy)."""

    strategy = "qgram"
    _with_buckets = True

    def _candidates(self, query: str, threshold: float) -> set[int]:
        """Candidate ids passing the length and count filters."""
        state = self._state
        length_q = len(query)
        overlap_of = state.accumulate(
            state.query_pairs(Counter(qgrams(query, self.q)))
        ).get
        candidates: set[int] = set()
        for length, ids in state.length_classes():
            longest = max(length_q, length)
            budget = strict_budget(threshold, longest)
            if budget < 0 or abs(length_q - length) > budget:
                continue
            required = longest + self.q - 1 - self.q * budget
            if required <= 0:
                # Degenerate length: a match might share no grams at
                # all, so the whole class is scanned.
                candidates.update(ids)
            else:
                candidates.update(
                    value_id
                    for value_id in ids
                    if overlap_of(value_id, 0) >= required
                )
        return candidates
