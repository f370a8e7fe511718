"""Per-candidate count filtering, kept as the oracle.

``gather`` and ``OverlapQGramIndex._candidates`` are the q-gram
strategy's candidate generation as it stood before the gram states grew
``accumulate``: union the buckets of every query gram, then re-sum
``min(query, stored)`` for each provisional candidate through
``state.overlap``.  Verbatim apart from this paragraph and from
``gather`` being a function over the gram state (it was a method on it;
the state no longer carries it).  ``tests/test_strings_kernels.py``
holds the shipped ``QGramIndex`` / ``SignatureIndex`` against it: same
result lists, same ``probes`` and ``verifications``.
"""

from __future__ import annotations

from collections import Counter

from repro.strings import QGramIndex, qgrams, strict_budget


def gather(state, query_pairs) -> set[int]:
    """Ids of the values sharing at least one gram with the probe."""
    found: set[int] = set()
    for gram, _ in query_pairs:
        found.update(state.buckets.get(gram, ()))
    return found


class OverlapQGramIndex(QGramIndex):
    """:class:`QGramIndex` with the bucket-union-then-filter candidates."""

    def _candidates(self, query: str, threshold: float) -> set[int]:
        """Candidate ids passing the length and count filters."""
        state = self._state
        values = self._values
        length_q = len(query)
        query_pairs = state.query_pairs(Counter(qgrams(query, self.q)))
        candidates: set[int] = set()

        # Bucket gathering with exact multiset count filtering.
        for value_id in gather(state, query_pairs):
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
