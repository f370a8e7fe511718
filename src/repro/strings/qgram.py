"""q-gram index for edit-distance similarity search.

Scoring every pair of distinct values per real-world type is quadratic;
the classic database trick is count filtering on q-grams: strings within
edit distance ``d`` share at least

    max(|a|, |b|) + q - 1 - q * d

padded q-grams, counted with multiset semantics (Gravano et al., VLDB
2001).  The index holds its value ids, the length classes, the gram
buckets (gram -> ascending ids of the values holding it) and, for the
values that hold a gram more than once, those grams' counts; a probe
walks the bucket of each of its q-grams once, accumulating every
stored value's shared-gram count on the way (``_scan_count``), then
keeps the values whose length class passes the length filter and whose
count reaches that class's requirement, and verifies the survivors with
the edit-distance kernel.

The buckets and the repeated-gram counts are the whole gram state: no
per-value gram multiset is kept.  That is what a snapshot stores and a
warm open adopts (``IndexPartial.to_record`` / ``from_record`` in
:mod:`repro.core.index`), so a loaded index is the built one, not a
re-encoding of it.

DogmatiX uses this to build, per real-world type, groups of mutually
similar values that drive both the inverted-index pair generation and
the object filter.  It is the library's one similar-value index.

Soundness notes:

* the count filter is applied on exact multiset intersections: a bucket
  entry counts once, and a value's count above one for a gram the probe
  repeats is read from its repeated-gram counts;
* when the threshold is so large that the required shared-gram count
  can drop to zero for some candidate length, the probe falls back to
  scanning the affected length classes, so no true match is ever
  filtered out (property-tested against brute force).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter

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
    by construction.  :meth:`_register` (for :meth:`add`) and
    :meth:`merge_from` are the writers; they run single-threaded
    (construction, partial build) or behind the session writer lock
    (``extend()``), never against the read path.
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
        #: value length -> ids of the values of that length
        self._by_length: dict[int, list[int]] = {}
        #: gram -> ids of the values holding it, ascending
        self._buckets: dict[str, list[int]] = {}
        #: gram -> ``[ids, counts]``: the ids (ascending) of the values
        #: holding it more than once and, parallel, how often (>= 2); a
        #: value listed under no gram holds each of its grams once
        self._repeats: dict[str, list[list[int]]] = {}
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
        return self._register(value, qgrams(value, self.q))

    def merge_from(self, other: "QGramIndex") -> None:
        """Graft another index's values into this one (set union).

        Values already present are skipped; new values take the next
        ids in ``other``'s order, and each of ``other``'s buckets and
        repeated-gram lists is walked once to append the new ids of its
        holders, so merging never re-counts grams — this is what lets
        worker processes build per-partition value indexes and the
        parent fold them together at dictionary speed (see
        :class:`repro.core.index.IndexPartial`).  Lists stay ascending
        (new ids are above every held one, in ``other``'s order).  No
        list is shared with ``other``: the source partial stays live
        after the merge (delta folds, re-merges into other targets),
        and a shared mutable container would let mutation on either side
        corrupt the other's count filter — the RPR001 escape class.
        Observable search behavior is merge-order-independent (searches
        return value *sets*; only the internal insertion order differs).
        """
        if other.q != self.q:
            raise ValueError(
                f"cannot merge a q={other.q} index into a q={self.q} index"
            )
        ids = self._ids
        # other's id -> this index's id, for the values new here
        renumbered = {
            source_id: self._register(value, ())
            for source_id, value in enumerate(other._values)
            if value not in ids
        }
        if not renumbered:
            return
        buckets, repeats = self._buckets, self._repeats
        for gram, holders in other._buckets.items():
            added = [renumbered[v] for v in holders if v in renumbered]
            if added:
                buckets.setdefault(gram, []).extend(added)
        for gram, (holders, counts) in other._repeats.items():
            for v, count in zip(holders, counts):
                if v in renumbered:
                    held = repeats.setdefault(gram, [[], []])
                    held[0].append(renumbered[v])
                    held[1].append(count)

    def _register(self, value: str, grams: list[str]) -> int:
        """Register a new value with its q-grams; returns its id, which
        joins the bucket of each distinct gram and, for a gram the list
        repeats, that gram's repeated-gram list with its count."""
        value_id = len(self._values)
        self._values.append(value)
        self._ids[value] = value_id
        self._by_length.setdefault(len(value), []).append(value_id)
        buckets = self._buckets
        distinct = dict.fromkeys(grams)
        for gram in distinct:
            bucket = buckets.get(gram)
            if bucket is None:
                buckets[gram] = [value_id]
            else:
                bucket.append(value_id)
        if len(distinct) < len(grams):  # a gram repeats: keep its count
            repeats = self._repeats
            for gram, count in Counter(grams).items():
                if count > 1:
                    held = repeats.setdefault(gram, [[], []])
                    held[0].append(value_id)
                    held[1].append(count)
        return value_id

    # ------------------------------------------------------------------
    # Stored form
    # ------------------------------------------------------------------
    def to_record(self) -> dict:
        """The index as a snapshot stores it: ``values`` (a value's
        position is its id), and ``buckets`` and ``repeats`` as
        :meth:`_register` built them.

        The record holds the index's own lists and dicts, not copies,
        so writing it builds no second copy of the buckets: encode it
        at once (``json.dumps``); never keep or change it.
        """
        return {
            "values": self._values,
            "buckets": self._buckets,
            "repeats": self._repeats,
        }

    @classmethod
    def from_record(cls, record: dict, q: int = 2) -> "QGramIndex":
        """Inverse of :meth:`to_record`: the index that wrote the record,
        with no gram counted and no bucket appended.

        The record's lists and dicts *become* the index's (the caller
        gives them up); only the value ids and the length classes are
        derived.  What is adopted is checked first — distinct string
        values; buckets non-empty, strictly ascending lists of in-range
        ids; repeats, per gram that has a bucket, ids as the buckets'
        and a parallel list of counts >= 2 — and anything else raises
        ``TypeError``, ``ValueError`` or ``KeyError``.
        """
        values, buckets = record["values"], record["buckets"]
        repeats = record["repeats"]
        if (
            type(values) is not list
            or type(buckets) is not dict
            or type(repeats) is not dict
            or not {*map(type, values)} <= {str}
        ):
            raise TypeError("values, buckets or repeats malformed")
        ids = dict(zip(values, range(len(values))))
        if len(ids) != len(values):
            raise ValueError("the values are not distinct")
        _check_ascending_ids(list(buckets.values()), len(values))
        held = list(repeats.values())
        if not {*map(type, held)} <= {list} or not {*map(len, held)} <= {2}:
            raise TypeError("a repeat is not an [ids, counts] pair")
        holders = list(map(itemgetter(0), held))
        counts = list(map(itemgetter(1), held))
        _check_ascending_ids(holders, len(values))
        if not {*map(type, counts)} <= {list} or list(map(len, counts)) != list(
            map(len, holders)
        ):
            raise TypeError("repeat counts are not parallel to their ids")
        counts = list(chain.from_iterable(counts))
        if (
            not repeats.keys() <= buckets.keys()
            or not {*map(type, counts)} <= {int}
            or (counts and min(counts) < 2)
        ):
            raise ValueError("a repeat is not a count >= 2 of a held gram")
        index = cls(q)
        by_length = index._by_length
        for value_id, value in enumerate(values):
            by_length.setdefault(len(value), []).append(value_id)
        index._values, index._ids = values, ids
        index._buckets, index._repeats = buckets, repeats
        return index

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

        ``min(query, stored)`` is what a gram adds to a value's overlap.
        Every bucket entry holds the gram at least once, so the bucket
        goes through ``Counter.update`` whole, and a gram the probe
        holds once — nearly all of them — is done.  For a gram the
        probe repeats, the values that repeat it too (its ids in
        ``_repeats``, a few) get ``min(query, stored) - 1`` more.  The
        accumulator is local to the call: readers of a frozen index
        share nothing.
        """
        shared: Counter[int] = Counter()
        repeats = self._repeats
        buckets = self._buckets
        for gram, count in query_grams.items():
            shared.update(buckets.get(gram, ()))
            if count > 1 and gram in repeats:
                for value_id, stored in zip(*repeats[gram]):
                    shared[value_id] += min(count, stored) - 1
        return shared

def _check_ascending_ids(lists: list, count: int) -> None:
    """Raise unless every list is a non-empty, strictly ascending list
    of ``int`` ids below ``count`` (a snapshot's buckets, or the ids of
    its repeated-gram lists)."""
    if (
        not {*map(type, lists)} <= {list}
        or not all(lists)
        or not {*map(type, chain.from_iterable(lists))} <= {int}
    ):
        raise TypeError("an id list is not a non-empty list of ids")
    if lists and (
        list(map(sorted, lists)) != lists
        or sum(map(len, map(set, lists))) != sum(map(len, lists))
        or min(map(itemgetter(0), lists)) < 0
        or max(map(itemgetter(-1), lists)) >= count
    ):
        raise ValueError("an id list is not ascending value ids")


def make_value_index(strategy: str, q: int = 2) -> QGramIndex:
    """A :class:`QGramIndex`; ``strategy`` must be ``"qgram"`` (see
    :func:`require_qgram_strategy`)."""
    require_qgram_strategy(strategy)
    return QGramIndex(q=q)
