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
the object filter.  It is the library's one similar-value index.

Soundness notes:

* the count filter is applied on exact multiset intersections of the
  stored gram counters, not on distinct-gram bucket hits;
* when the threshold is so large that the required shared-gram count
  can drop to zero for some candidate length, the probe falls back to
  scanning the affected length classes, so no true match is ever
  filtered out (property-tested against brute force).
"""

from __future__ import annotations

from collections import Counter

from .levenshtein import ned_cached, strict_budget
from .value_index import DictValueState, qgrams, require_qgram_strategy


class QGramIndex:
    """Index of string values supporting thresholded ``ned`` probes,
    by count + length filtering over gram buckets."""

    def __init__(self, q: int = 2) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        #: Insertion-ordered distinct values: value ids and result
        #: ordering are defined by this order.
        self._values: list[str] = []
        #: The gram state (lookup and posting structures).
        self._state = DictValueState()
        self.probes = 0
        self.verifications = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._state.ids

    @property
    def values(self) -> list[str]:
        return list(self._values)

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def add(self, value: str) -> int:
        """Register a value (idempotent); returns its id."""
        existing = self._state.find(value)
        if existing >= 0:
            return existing
        self._values.append(value)
        return self._state.register(value, Counter(qgrams(value, self.q)))

    def merge_from(self, other: "QGramIndex") -> None:
        """Graft another index's values into this one (set union).

        Values already present are skipped; new values keep the gram
        counters ``other`` computed, so merging never re-counts grams —
        this is what lets worker processes build per-partition value
        indexes and the parent fold them together at dictionary speed
        (see :class:`repro.core.index.IndexPartial`).  The counters are
        *copied* on graft, never aliased: the source partial stays live
        after the merge (delta folds, re-merges into other targets),
        and a shared mutable counter would let mutation on either side
        corrupt the other's count filter — the RPR001 escape class.
        Observable search behavior is merge-order-independent (searches
        return value *sets*; only the internal insertion order differs).
        """
        if other.q != self.q:
            raise ValueError(
                f"cannot merge a q={other.q} index into a q={self.q} index"
            )
        state = self._state
        for other_id, value in enumerate(other._values):
            if value in state.ids:
                continue
            self._values.append(value)
            state.register(value, other._state.grams[other_id].copy())

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def search(self, query: str, threshold: float) -> list[str]:
        """All indexed values ``v`` with ``ned(query, v) < threshold``.

        The query itself is included when indexed (``ned = 0``).
        Results are in insertion order.
        """
        # repro: allow[RPR004] informational counter: lock-free readers
        # of a frozen index may lose an increment; nothing decides on it
        self.probes += 1
        state = self._state
        values = self._values
        matched: set[int] = set()
        query_id = state.find(query)
        if query_id >= 0:
            matched.add(query_id)
        if threshold > 0:
            q = self.q
            length_q = len(query)
            overlap_of = state.accumulate(
                state.query_pairs(Counter(qgrams(query, q)))
            ).get
            for length, ids in state.length_classes():
                longest = max(length_q, length)
                budget = strict_budget(threshold, longest)
                if budget < 0 or abs(length_q - length) > budget:
                    continue
                # Below 1 the class is degenerate: a match might share
                # no grams at all, so every value in it is verified.
                required = longest + q - 1 - q * budget
                for value_id in ids:
                    if value_id == query_id or (
                        required > 0 and overlap_of(value_id, 0) < required
                    ):
                        continue
                    # repro: allow[RPR004] informational counter (see probes)
                    self.verifications += 1
                    # within_normalized's verdict (strict_budget), memoized
                    # per unordered pair: the reverse probe finds it settled
                    if ned_cached(query, values[value_id]) < threshold:
                        matched.add(value_id)
        return [values[value_id] for value_id in sorted(matched)]

    def similarity_groups(self, threshold: float) -> dict[str, list[str]]:
        """For every indexed value, the values similar to it (incl. itself)."""
        return {value: self.search(value, threshold) for value in self._values}


def make_value_index(strategy: str, q: int = 2) -> QGramIndex:
    """A :class:`QGramIndex`; ``strategy`` must be ``"qgram"`` (see
    :func:`~repro.strings.value_index.require_qgram_strategy`)."""
    require_qgram_strategy(strategy)
    return QGramIndex(q=q)
