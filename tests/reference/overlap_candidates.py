"""Per-candidate count filtering, kept as the oracle.

``OverlapQGramIndex.search`` is the q-gram index's probe as it stood
before the gram state grew ``accumulate``: union the buckets of every
query gram (``gather``), re-sum ``min(query, stored)`` for each
provisional candidate (``overlap``, a brute ``Σ min`` over the stored
gram counter), add the degenerate length classes whole, then verify
every candidate but the query itself with the memoized ``ned``.
``tests/test_strings_kernels.py`` holds the shipped ``QGramIndex``
against it: same result lists, same ``probes`` and ``verifications``.
"""

from __future__ import annotations

from collections import Counter

from repro.strings import QGramIndex, ned_cached, qgrams, strict_budget


def gather(state, query_pairs) -> set[int]:
    """Ids of the values sharing at least one gram with the probe."""
    found: set[int] = set()
    for gram, _ in query_pairs:
        found.update(state.buckets.get(gram, ()))
    return found


def overlap(state, value_id: int, query_pairs) -> int:
    """Exact multiset overlap ``sum(min(stored, query))`` of one value."""
    stored = state.counter(value_id).get
    return sum(min(count, stored(gram, 0)) for gram, count in query_pairs)


class OverlapQGramIndex(QGramIndex):
    """:class:`QGramIndex` with the bucket-union-then-filter probe."""

    def candidates(self, query: str, threshold: float) -> set[int]:
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
            if required > 0 and overlap(state, value_id, query_pairs) < required:
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

    def search(self, query: str, threshold: float) -> list[str]:
        self.probes += 1
        values = self._values
        matched: set[int] = set()
        query_id = self._state.find(query)
        if query_id >= 0:
            matched.add(query_id)
        if threshold > 0:
            for value_id in self.candidates(query, threshold):
                if value_id == query_id:
                    continue
                self.verifications += 1
                if ned_cached(query, values[value_id]) < threshold:
                    matched.add(value_id)
        return [values[value_id] for value_id in sorted(matched)]
