"""q-gram index for edit-distance similarity search.

Scoring every pair of distinct values per real-world type is quadratic;
the classic database trick is count filtering on q-grams: strings within
edit distance ``d`` share at least

    max(|a|, |b|) + q - 1 - q * d

padded q-grams, counted with multiset semantics (Gravano et al., VLDB
2001).  The index holds its value ids, each value's gram multiset, the
length classes and the gram buckets itself; a probe walks the bucket
of each of its q-grams once, accumulating every stored value's
shared-gram count on the way (``_scan_count``), then keeps the values
whose length class passes the length filter and whose count reaches
that class's requirement, and verifies the survivors with the
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

#: Padding character outside the XML character-data alphabet we generate.
_PAD = "\x00"


def qgrams(value: str, q: int = 2) -> list[str]:
    """Padded q-grams of a string (``q - 1`` pad chars on each side)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    padded = _PAD * (q - 1) + value + _PAD * (q - 1)
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


def require_qgram_strategy(strategy: object) -> None:
    """Raise ``ValueError`` unless ``strategy`` is ``"qgram"``.

    The choice of similar-value index was removed; the ``strategy`` /
    ``similarity_strategy`` names that remain accept only the one index.
    """
    if strategy != "qgram":
        raise ValueError(
            f"similarity strategy {strategy!r} is not available: the "
            "strategy choice was removed and 'qgram' is the only value"
        )


class QGramIndex:
    """Index of string values supporting thresholded ``ned`` probes,
    by count + length filtering over gram buckets.

    Value ids are insertion ranks, so every id list below is ascending
    by construction.  :meth:`_register` is the one writer; it runs
    single-threaded (construction, partial build) or behind the session
    writer lock (``extend()``), never against the read path.
    """

    def __init__(self, q: int = 2) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        #: Insertion-ordered distinct values: value ids and result
        #: ordering are defined by this order.
        self._values: list[str] = []
        #: value -> value id
        self._ids: dict[str, int] = {}
        #: value id -> the value's gram multiset
        self._grams: list[Counter[str]] = []
        #: value length -> ids of the values of that length
        self._by_length: dict[int, list[int]] = {}
        #: gram -> ids of the values holding it
        self._buckets: dict[str, list[int]] = {}
        self.probes = 0
        self.verifications = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._ids

    @property
    def values(self) -> list[str]:
        return list(self._values)

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def add(self, value: str) -> int:
        """Register a value (idempotent); returns its id."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        return self._register(value, Counter(qgrams(value, self.q)))

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
        for value, grams in zip(other._values, other._grams):
            if value not in self._ids:
                self._register(value, grams.copy())

    def _register(self, value: str, grams: Counter[str]) -> int:
        """Register a new value with its gram multiset; returns its id.

        The index keeps ``grams`` — callers pass a counter they own.
        """
        value_id = len(self._values)
        self._values.append(value)
        self._ids[value] = value_id
        self._grams.append(grams)
        self._by_length.setdefault(len(value), []).append(value_id)
        buckets = self._buckets
        for gram in grams:
            buckets.setdefault(gram, []).append(value_id)
        return value_id

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
        values = self._values
        matched: set[int] = set()
        query_id = self._ids.get(query, -1)
        if query_id >= 0:
            matched.add(query_id)
        if threshold > 0:
            q = self.q
            length_q = len(query)
            overlap_of = self._scan_count(Counter(qgrams(query, q))).get
            # a snapshot of the classes: a probe never iterates a dict a
            # writer grows
            for length, ids in tuple(self._by_length.items()):
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

    def _scan_count(self, query_grams: Counter[str]) -> Counter[int]:
        """``value id -> overlap`` for every value sharing a gram with
        the probe, summed while each query gram's bucket is walked once
        (ScanCount; Li, Lu & Lu, ICDE 2008).

        ``min(query, stored)`` is the number of levels ``1..query`` the
        stored count reaches.  Every bucket entry reaches level 1, so
        the bucket goes through ``Counter.update`` whole, and a gram the
        probe holds once — nearly all of them — is done; only a
        repeated gram reads stored counts, for the entries still in at
        each further level.  The accumulator is local to the call:
        readers of a frozen index share nothing.
        """
        shared: Counter[int] = Counter()
        grams = self._grams
        buckets = self._buckets
        for gram, count in query_grams.items():
            holders = buckets.get(gram, ())
            shared.update(holders)
            for level in range(2, count + 1):
                holders = [v for v in holders if grams[v][gram] >= level]
                shared.update(holders)
        return shared


def make_value_index(strategy: str, q: int = 2) -> QGramIndex:
    """A :class:`QGramIndex`; ``strategy`` must be ``"qgram"`` (see
    :func:`require_qgram_strategy`)."""
    require_qgram_strategy(strategy)
    return QGramIndex(q=q)
