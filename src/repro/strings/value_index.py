"""The shell both similar-value indexes share, over one gram state.

A value index answers thresholded ``ned`` probes over the distinct
values of one comparison key.  Everything except candidate generation
is the same for every strategy, so it lives here once: the
insertion-ordered value list, ``add``/``merge_from`` and the ``search``
skeleton with its counters.  A strategy subclasses :class:`ValueIndex`
and supplies ``_candidates``.

The lookup structures around the value list are a *gram state*,
:class:`DictValueState`, read through ``find``, ``counter``,
``length_classes``, and the exact multiset count filter as
``query_pairs`` + ``accumulate`` (every value's overlap in one walk of
the gram buckets, q-gram strategy only) or ``overlap`` (one value's).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from .._lazy import LazyRegistry
from .levenshtein import ned_cached

#: Padding character outside the XML character-data alphabet we generate.
_PAD = "\x00"


def qgrams(value: str, q: int = 2) -> list[str]:
    """Padded q-grams of a string (``q - 1`` pad chars on each side)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    padded = _PAD * (q - 1) + value + _PAD * (q - 1)
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


class DictValueState:
    """Writable gram state: value ids, gram multisets, length classes
    and (for the q-gram strategy) gram buckets, as dicts.

    Value ids are insertion ranks, so every id list below is ascending
    by construction.  :meth:`register` is the one writer; it runs
    single-threaded (construction, partial build) or behind the session
    writer lock (``extend()``), never against the read path.
    """

    __slots__ = ("ids", "grams", "by_length", "buckets")

    def __init__(self, with_buckets: bool) -> None:
        self.ids: dict[str, int] = {}
        self.grams: list[Counter[str]] = []
        self.by_length: dict[int, list[int]] = {}
        self.buckets: Optional[dict[str, list[int]]] = {} if with_buckets else None

    def register(self, value: str, grams: Counter[str]) -> int:
        """Register a new value with its gram multiset; returns its id.

        The state keeps ``grams`` — callers pass a counter they own.
        """
        value_id = len(self.grams)
        self.ids[value] = value_id
        self.grams.append(grams)
        self.by_length.setdefault(len(value), []).append(value_id)
        if self.buckets is not None:
            for gram in grams:
                self.buckets.setdefault(gram, []).append(value_id)
        return value_id

    def find(self, query: str) -> int:
        """The insertion id of ``query``, or ``-1``."""
        return self.ids.get(query, -1)

    def counter(self, value_id: int) -> Counter[str]:
        """One value's gram multiset (internal; callers must not mutate)."""
        return self.grams[value_id]

    def query_pairs(self, query_grams: Counter[str]) -> tuple[tuple[str, int], ...]:
        """A probe's ``(gram, count)`` pairs, as :meth:`overlap` and
        :meth:`accumulate` take them."""
        return tuple(query_grams.items())

    def overlap(self, value_id: int, query_pairs: Iterable[tuple[str, int]]) -> int:
        """Exact multiset overlap ``sum(min(stored, query))`` of one value."""
        stored = self.grams[value_id].get
        return sum(min(count, stored(gram, 0)) for gram, count in query_pairs)

    def accumulate(self, query_pairs: Iterable[tuple[str, int]]) -> Counter[int]:
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
        grams = self.grams
        for gram, count in query_pairs:
            holders = self.buckets.get(gram, ())
            shared.update(holders)
            for level in range(2, count + 1):
                holders = [v for v in holders if grams[v][gram] >= level]
                shared.update(holders)
        return shared

    def length_classes(self) -> tuple[tuple[int, Sequence[int]], ...]:
        """``(length, value ids)`` per length class (the class list is a
        snapshot, so a probe never iterates a dict a writer grows)."""
        return tuple(self.by_length.items())


class ValueIndex:
    """Index of string values supporting thresholded ``ned`` probes.

    Subclasses set :attr:`strategy` and implement :meth:`_candidates`;
    results are strategy-independent (pinned by the differential fuzz
    harness in ``tests/test_similarity_strategies.py``).
    """

    #: Registry name; merge compatibility is checked against it.
    strategy = ""
    #: Whether the gram state keeps gram -> value-id buckets.
    _with_buckets = False

    def __init__(self, q: int = 2) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        #: Insertion-ordered distinct values: value ids and result
        #: ordering are defined by this order.
        self._values: list[str] = []
        #: The gram state (lookup and posting structures).
        self._state = DictValueState(self._with_buckets)
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

    def merge_from(self, other: "ValueIndex") -> None:
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
        if other.strategy != self.strategy:
            raise ValueError(
                f"cannot merge a {other.strategy!r} index into a "
                f"{self.strategy!r} index"
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
        Results are in insertion order — identical, value for value,
        for every strategy over the same insertion sequence.
        """
        # repro: allow[RPR004] informational counter: lock-free readers
        # of a frozen index may lose an increment; nothing decides on it
        self.probes += 1
        values = self._values
        matched: set[int] = set()
        query_id = self._state.find(query)
        if query_id >= 0:
            matched.add(query_id)
        if threshold > 0:
            for value_id in self._candidates(query, threshold):
                if value_id == query_id:
                    continue
                value = values[value_id]
                verdict = self._bound_verdict(query, value, threshold)
                if verdict is None:
                    # repro: allow[RPR004] informational counter (see probes)
                    self.verifications += 1
                    # within_normalized's verdict (strict_budget), memoized
                    # per unordered pair: the reverse probe finds it settled
                    verdict = ned_cached(query, value) < threshold
                if verdict:
                    matched.add(value_id)
        return [values[value_id] for value_id in sorted(matched)]

    def _candidates(self, query: str, threshold: float) -> set[int]:
        """Ids that may match: a superset of the true matches."""
        raise NotImplementedError

    def _bound_verdict(
        self, query: str, value: str, threshold: float
    ) -> Optional[bool]:
        """A match decision cheaper than the DP, or ``None`` to run it."""
        return None

    def similarity_groups(self, threshold: float) -> dict[str, list[str]]:
        """For every indexed value, the values similar to it (incl. itself)."""
        return {value: self.search(value, threshold) for value in self._values}


#: Similar-value search strategies: registry name -> index class, the
#: class imported when the name is looked up.  Both answer thresholded
#: ``ned`` probes with identical result sets; they differ only in
#: candidate generation (``bench/`` reports the counts as
#: ``strings.search_probes`` / ``strings.search_verifications``).
SIMILARITY_STRATEGIES = LazyRegistry(
    {
        "qgram": "repro.strings.qgram:QGramIndex",
        "signature": "repro.strings.signatures:SignatureIndex",
    }
)


def make_value_index(strategy: str, q: int = 2) -> ValueIndex:
    """Construct the value index a strategy name describes.

    Raises :class:`LookupError` naming the known strategies, matching
    the registry error style of :mod:`repro.api.registries`.
    """
    if strategy not in SIMILARITY_STRATEGIES:
        raise LookupError(
            f"unknown similarity strategy {strategy!r}; registered: "
            f"{', '.join(sorted(SIMILARITY_STRATEGIES))}"
        )
    return SIMILARITY_STRATEGIES[strategy](q=q)
