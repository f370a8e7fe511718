"""Per-candidate count filtering, kept as the oracle.

``OverlapQGramIndex.search`` is the q-gram index's probe as it stood
before the index grew its ScanCount walk (``_scan_count``): union the
buckets of every query gram (``gather``, over ``_buckets``), re-sum
``min(query, stored)`` for each provisional candidate (``overlap``, a
brute ``Σ min`` over the stored gram counter in ``_grams``), add the
degenerate length classes of ``_by_length`` whole, then verify every
candidate but the query itself with the memoized ``ned``.
``tests/test_strings_kernels.py`` holds the shipped ``QGramIndex``
against it: same result lists, same ``probes`` and ``verifications``.
"""

from __future__ import annotations

from collections import Counter

from repro.strings import QGramIndex, ned_cached, qgrams, strict_budget


def gather(index: QGramIndex, probe_grams) -> set[int]:
    """Ids of the values sharing at least one gram with the probe."""
    found: set[int] = set()
    for gram, _ in probe_grams:
        found.update(index._buckets.get(gram, ()))
    return found


def overlap(index: QGramIndex, value_id: int, probe_grams) -> int:
    """Exact multiset overlap ``sum(min(stored, query))`` of one value."""
    stored = index._grams[value_id].get
    return sum(min(count, stored(gram, 0)) for gram, count in probe_grams)


class OverlapQGramIndex(QGramIndex):
    """:class:`QGramIndex` with the bucket-union-then-filter probe."""

    def candidates(self, query: str, threshold: float) -> set[int]:
        """Candidate ids passing the length and count filters."""
        values = self._values
        length_q = len(query)
        probe_grams = tuple(Counter(qgrams(query, self.q)).items())
        candidates: set[int] = set()

        # Bucket gathering with exact multiset count filtering.
        for value_id in gather(self, probe_grams):
            length = len(values[value_id])
            longest = max(length_q, length)
            budget = strict_budget(threshold, longest)
            if budget < 0 or abs(length_q - length) > budget:
                continue
            required = longest + self.q - 1 - self.q * budget
            if required > 0 and overlap(self, value_id, probe_grams) < required:
                continue
            candidates.add(value_id)

        # Degenerate lengths: the required count can reach zero, meaning
        # a match might share no grams at all; scan those length classes.
        for length, ids in tuple(self._by_length.items()):
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
        query_id = self._ids.get(query, -1)
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
