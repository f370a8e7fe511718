"""Corpus index over the OD instance: occurrences and similar values.

Everything quadratic in DogmatiX funnels through questions this index
answers in (amortized) sub-quadratic time:

* ``softIDF`` needs ``|O_odt|`` — how many objects contain a given
  (comparable-kind, value) term;
* comparison reduction needs, per OD tuple, the *similar value group*
  within its real-world type (values with ``ned < θ_tuple``), both for
  the shared-tuple blocking and for the object filter's
  S_shared/S_unique split.

Occurrence counting keys tuples by ``(comparison key, value)``: the
paper's O_odt counts the ODs a term occurs in, and a "term" is a piece
of typed information — the same value under two XPaths of the same
real-world type (e.g. ``movie/title`` vs. ``film/title``) is one term.
Similar-value groups are computed per comparison key with a q-gram
index and memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..strings.qgram import QGramIndex
from ..strings.value_index import require_qgram_strategy
from .encodings import DictTermState, require_dict_encoding

#: Gram length of every value index the library builds; nothing above
#: the index constructors selects another.
DEFAULT_Q = 2

#: Queries the corpus does not hold (values of foreign ``match()``
#: elements) whose similar-value groups stay memoized at once; the memo
#: is dropped wholesale beyond that, so a daemon's memory does not grow
#: with the distinct values clients post.
_FOREIGN_CACHE_SIZE = 4096


@dataclass
class IndexPartial:
    """The mergeable state of a :class:`CorpusIndex` over an OD subset.

    A partial is what one ingest worker builds for its partition of the
    corpus: occurrence sets, per-kind object sets, and per-kind q-gram
    value indexes.  Partials are picklable and :meth:`merge` is
    associative and commutative up to observable index behavior
    (occurrence/soft-IDF counts and similar-value *sets* are exactly
    those of a serial build over the union; only internal value
    insertion order can differ — pinned by the merge-associativity fuzz
    suite in ``tests/test_ingest_merge.py``).  The same structure is
    the delta :meth:`CorpusIndex.merge_partial` folds into a *live*
    index for incremental ingestion.

    The object ids of the merged partials must be pairwise disjoint
    (each object described by exactly one partial) — the same contract
    a serial build gets from unique candidate ids.
    """

    total_objects: int = 0
    occurrences: dict[tuple[str, str], set[int]] = field(default_factory=dict)
    objects_by_key: dict[str, set[int]] = field(default_factory=dict)
    value_indexes: dict[str, QGramIndex] = field(default_factory=dict)
    q: int = DEFAULT_Q

    @classmethod
    def from_ods(
        cls,
        ods: Sequence[ObjectDescription],
        mapping: TypeMapping,
        q: int = DEFAULT_Q,
        strategy: str = "qgram",
        encoding: str = "dict",
    ) -> "IndexPartial":
        """Index one OD partition (the loop of a serial index build).

        ``strategy`` accepts only ``"qgram"`` and ``encoding`` only
        ``"dict"``: the one index there is, for callers that still name it.
        """
        require_qgram_strategy(strategy)
        require_dict_encoding(encoding)
        partial = cls(total_objects=len(ods), q=q)
        occurrences = partial.occurrences
        objects_by_key = partial.objects_by_key
        value_indexes = partial.value_indexes
        for od in ods:
            for odt in od.tuples:
                key = mapping.comparison_key(odt.name)
                term = (key, odt.value)
                found = occurrences.get(term)
                if found is None:
                    found = occurrences[term] = set()
                found.add(od.object_id)
                by_key = objects_by_key.get(key)
                if by_key is None:
                    by_key = objects_by_key[key] = set()
                by_key.add(od.object_id)
                index = value_indexes.get(key)
                if index is None:
                    index = value_indexes[key] = QGramIndex(q=q)
                index.add(odt.value)
        return partial

    def merge(self, other: "IndexPartial") -> "IndexPartial":
        """Fold another partial into this one (in place); returns self."""
        if other.q != self.q:
            raise ValueError(
                f"cannot merge a q={other.q} partial into a q={self.q} partial"
            )
        self.total_objects += other.total_objects
        _fold_term_state(
            self.occurrences, self.objects_by_key, self.value_indexes, other
        )
        return self


def _fold_term_state(
    occurrences: dict[tuple[str, str], set[int]],
    objects_by_key: dict[str, set[int]],
    value_indexes: dict[str, QGramIndex],
    other: IndexPartial,
) -> None:
    """Fold a partial's term state into target mappings.

    The one merge implementation behind both :meth:`IndexPartial.merge`
    and :meth:`CorpusIndex.merge_partial` — the subtle part of the
    algebra (set unions plus gram-counter grafting) must not exist
    twice.  The incoming partial's sets are copied, never aliased, so
    later folds into the target cannot mutate ``other``.
    """
    for term, ids in other.occurrences.items():
        found = occurrences.get(term)
        if found is None:
            occurrences[term] = set(ids)
        else:
            found |= ids
    for key, ids in other.objects_by_key.items():
        by_key = objects_by_key.get(key)
        if by_key is None:
            objects_by_key[key] = set(ids)
        else:
            by_key |= ids
    for key, value_index in other.value_indexes.items():
        index = value_indexes.get(key)
        if index is None:
            index = value_indexes[key] = QGramIndex(q=value_index.q)
        index.merge_from(value_index)


class CorpusIndex:
    """Index of a full OD instance {OD_1, ..., OD_n}."""

    def __init__(
        self,
        ods: Sequence[ObjectDescription],
        mapping: TypeMapping,
        theta_tuple: float,
        q: int = DEFAULT_Q,
        strategy: str = "qgram",
        encoding: str = "dict",
    ) -> None:
        if not 0 <= theta_tuple <= 1:
            raise ValueError(f"theta_tuple must be in [0, 1], got {theta_tuple}")
        require_qgram_strategy(strategy)
        require_dict_encoding(encoding)
        self.mapping = mapping
        self.theta_tuple = theta_tuple
        self.total_objects = 0
        #: The occurrence state every read goes through: (key, value) ->
        #: object ids and key -> object ids.
        self._terms = DictTermState()
        #: key -> similar-value index over the distinct values of that kind
        self._value_indexes: dict[str, QGramIndex] = {}
        self.q = q
        #: Always ``"qgram"``: the one similar-value index.
        self.strategy = strategy
        #: Always ``"dict"``: the one index representation.
        self.encoding = encoding
        #: (key, value) -> memoized similar value group, one memo for
        #: the queries the index holds (at most one entry per term,
        #: invalidated entry by entry in :meth:`merge_partial`) and a
        #: bounded one for those it does not
        self._similar_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._foreign_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        #: memoized softIDF values (terms repeat across the O(n²) pairs)
        self._pair_idf_cache: dict[tuple[str, str, str, str], float] = {}
        #: memoized statistics() of a frozen index; see :meth:`statistics`
        self._statistics_cache: dict[str, int] | None = None
        #: read-only-after-build pin; see :meth:`freeze`
        self._frozen = False

        # One tuple-scan implementation for every construction path:
        # the serial build is the single-partial case of the merge, so
        # serial/parallel/delta parity holds by construction.  Nobody
        # else holds this partial, so its state is adopted, not copied.
        if ods:
            partial = IndexPartial.from_ods(ods, mapping, q=q)
            self.total_objects = partial.total_objects
            self._terms.occurrences = partial.occurrences
            self._terms.objects_by_key = partial.objects_by_key
            self._value_indexes = partial.value_indexes

    # ------------------------------------------------------------------
    # Mergeable construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partial(
        cls,
        partial: IndexPartial,
        mapping: TypeMapping,
        theta_tuple: float,
    ) -> "CorpusIndex":
        """Index built from a (merged) partial instead of an OD scan.

        Observably identical to ``CorpusIndex(ods, ...)`` over the same
        objects: occurrence sets, per-kind object sets, and the
        distinct-value sets behind similar-value search are exactly the
        serial build's, whatever partition and merge order produced
        ``partial``.
        """
        index = cls((), mapping, theta_tuple, q=partial.q)
        index.merge_partial(partial)
        return index

    def merge_partial(self, partial: IndexPartial) -> None:
        """Fold a partition's index state into this live index.

        This is the delta-ingestion seam: ``DetectionSession.extend``
        builds an :class:`IndexPartial` over the new source's ODs and
        merges it here, so the standing index (occurrence counts,
        soft-IDF statistics, similar-value groups, blocking view) grows
        to cover the extension instead of staying a snapshot of
        construction time.

        The similar-value memo survives, minus what the delta touched:
        ``ned`` is symmetric, so the group of a standing query ``u``
        changes only if a value ``v`` the delta *adds* has ``u`` in its
        own group — each added value is looked up once on the folded
        index (memoizing its group) and exactly those entries are
        dropped, to be searched afresh when next asked for, along with
        every memoized query the index does not hold, which no such
        search can reach.  The pair soft-IDF memo is cleared: every
        entry reads ``total_objects``.
        """
        if self._frozen:
            raise RuntimeError(
                "cannot merge into a frozen CorpusIndex: the index is "
                "pinned read-only after build so concurrent readers "
                "(match/detect) never observe structural mutation; grow "
                "it through DetectionSession.extend(), which thaws the "
                "index behind its writer lock"
            )
        if partial.q != self.q:
            raise ValueError(
                f"cannot merge a q={partial.q} partial into a q={self.q} index"
            )
        # repro: allow[RPR004] sanctioned writer: raises above when
        # frozen, and runs single-threaded (construction) or behind the
        # session writer lock (extend) — never concurrently with itself
        self.total_objects += partial.total_objects
        terms = self._terms
        live = self._value_indexes
        memo = self._similar_cache
        added = [
            (key, value)
            for key, incoming in partial.value_indexes.items()
            for value in incoming.values
            if value not in live.get(key, ())
        ] if memo else []
        _fold_term_state(terms.occurrences, terms.objects_by_key, live, partial)
        self._foreign_cache = {}
        for key, value in added:
            for query in self.similar_values(key, value):
                if query != value:  # its own group was just memoized
                    memo.pop((key, query), None)
        self._pair_idf_cache.clear()
        self._statistics_cache = None

    # ------------------------------------------------------------------
    # Read-only pin
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether structural mutation is currently rejected."""
        return self._frozen

    def freeze(self) -> None:
        """Pin the index read-only: :meth:`merge_partial` now raises.

        Sessions freeze their index once construction finishes, so the
        lock-free concurrent read path (``match()``) is backed by an
        assertion seam rather than convention — any code path that
        would structurally mutate a served index fails loudly instead
        of racing readers.  The memo caches (similar-value groups, pair
        soft-IDF) stay writable: their entries are idempotent
        per-key values computed from frozen state, and CPython dict
        assignment is atomic, so concurrent memoization is benign.
        The state itself is kept as built: freezing is O(1).
        """
        self._frozen = True

    def thaw(self) -> None:
        """Re-admit structural mutation (delta ingestion).

        Only :meth:`~repro.api.session.DetectionSession.extend` should
        call this, from behind its per-session writer lock; it
        re-freezes in a ``finally`` so readers never see a thawed
        index.  The memoized statistics are invalidated alongside.
        """
        self._statistics_cache = None
        self._frozen = False

    # ------------------------------------------------------------------
    # Terms and occurrences
    # ------------------------------------------------------------------
    def key_of(self, name: str) -> str:
        """Comparison key (real-world type or generic path) of an XPath."""
        return self.mapping.comparison_key(name)

    def occurrences(self, key: str, value: str) -> frozenset[int]:
        """O_odt: ids of objects containing the term (empty set if unseen).

        Returned as a frozenset snapshot — the live internal sets must
        not leak, or callers could mutate the index.
        """
        return frozenset(self._terms.occurrence_row(key, value))

    def objects_with_key(self, key: str) -> frozenset[int]:
        """Ids of objects that specify any data of this kind (snapshot)."""
        return frozenset(self._terms.key_row(key))

    def key_elsewhere(self, key: str, object_id: int) -> bool:
        """``bool(objects_with_key(key) - {object_id})``, without the copy."""
        return self._terms.key_elsewhere(key, object_id)

    def pair_idf(self, key_i: str, value_i: str, key_j: str, value_j: str) -> float:
        """Memoized softIDF of a term pair (Definition 8).

        log(|Ω| / |O_i ∪ O_j|); unseen terms count as one occurrence.
        The union cardinality is *counted*, never materialized: a
        membership-count of the smaller set against the larger, exactly
        ``len(O_i | O_j)``.
        """
        if (key_i, value_i) > (key_j, value_j):  # canonical order
            key_i, value_i, key_j, value_j = key_j, value_j, key_i, value_i
        cache_key = (key_i, value_i, key_j, value_j)
        cached = self._pair_idf_cache.get(cache_key)
        if cached is not None:
            return cached
        denominator = max(
            1, self._terms.union_cardinality(key_i, value_i, key_j, value_j)
        )
        total = max(self.total_objects, denominator)
        value = math.log(total / denominator)
        # Memoized only between terms of the corpus: pairs with a
        # foreign match() value are as many as clients care to post.
        held = self._value_indexes
        if value_i in held.get(key_i, ()) and value_j in held.get(key_j, ()):
            self._pair_idf_cache[cache_key] = value
        return value

    # ------------------------------------------------------------------
    # Similar values
    # ------------------------------------------------------------------
    def similar_values(self, key: str, value: str) -> tuple[str, ...]:
        """Distinct corpus values of kind ``key`` with ``ned < θ_tuple``
        to ``value`` (including the value itself when present).

        Returned as an immutable tuple: the result *is* the memoized
        ``_similar_cache`` entry, and handing out a live list let any
        caller's mutation corrupt the group every later query sees
        (the aliasing class PR 1 fixed for :meth:`occurrences`).
        """
        term = (key, value)
        # a held query's group holds the query, so it is never empty
        cached = self._similar_cache.get(term) or self._foreign_cache.get(term)
        if cached is not None:
            return cached
        index = self._value_indexes.get(key)
        result = tuple(index.search(value, self.theta_tuple)) if index else ()
        if value in result:  # a search returns its query iff indexed
            self._similar_cache[term] = result
        else:
            foreign = self._foreign_cache
            if len(foreign) >= _FOREIGN_CACHE_SIZE:
                foreign = self._foreign_cache = {}
            foreign[term] = result
        return result

    def similar_verdict(self, key: str, a: str, b: str) -> Optional[bool]:
        """``ned(a, b) < θ_tuple`` read from the similar-value groups,
        ``None`` when the index holds neither value: a group lists every
        *held* value within θ_tuple of its query, so a held ``b`` is
        similar to ``a`` iff it is in ``a``'s group, and symmetrically.
        Step 4 memoized the groups step 5 asks for; no state is added.
        """
        if a == b:
            return self.theta_tuple > 0  # a group holds its query at θ = 0 too
        memo = self._similar_cache  # holds held queries only
        group = memo.get((key, a))
        if group is not None and (key, b) in memo:
            return b in group
        held = self._value_indexes.get(key, ())
        if b in held:
            return b in self.similar_values(key, a)
        if a in held:
            return a in self.similar_values(key, b)
        return None

    def objects_with_similar(
        self, key: str, value: str, exclude: int | None = None
    ) -> set[int]:
        """Ids of objects holding a tuple of kind ``key`` whose value is
        similar to ``value``; optionally excluding one object id."""
        found = self._terms.union_rows(key, self.similar_values(key, value))
        if exclude is not None:
            found.discard(exclude)
        return found

    # ------------------------------------------------------------------
    # Blocking
    # ------------------------------------------------------------------
    def block_terms(self) -> tuple[tuple[str, str], ...]:
        """All distinct (comparison key, value) terms of the corpus.

        These are exactly the possible shared-tuple block keys: a block
        ``(k, w)`` groups the objects holding a value similar to ``w``
        of kind ``k`` (its members: :meth:`block_members`).

        Returned as a tuple snapshot: the live ``.keys()`` view tracks
        mutation, so a caller iterating it while ``extend()``
        delta-merges new terms would see the set change mid-iteration
        (``RuntimeError`` at best, a silently shifted term set at
        worst) — the PR 6 escape class RPR001 exists to catch.

        Term *order* (insertion order) is non-contractual.
        """
        return self._terms.block_terms()

    def block_members(self, term: tuple[str, str]) -> set[int]:
        """Ids of the objects in the ``(key, value)`` term's block.

        ``od in block_members((k, w))`` iff ``(k, w) in block_keys(od)``
        — the inverted view of the same block structure, relying on the
        symmetry of the normalized edit distance.
        """
        key, value = term
        return self.objects_with_similar(key, value)

    def block_keys(self, od: ObjectDescription) -> Iterable[tuple[str, str]]:
        """Block keys for shared-tuple blocking.

        An OD receives one key per (kind, similar-value) combination.
        If two objects have similar comparable tuples ``v ~ w``, the
        first object's keys include ``(kind, w)`` and the second object
        carries ``(kind, w)`` natively, so the pair shares a block —
        no similar pair is ever missed (lossless for sim > 0).
        """
        keys: set[tuple[str, str]] = set()
        for odt in od.tuples:
            key = self.key_of(odt.name)
            for similar in self.similar_values(key, odt.value):
                keys.add((key, similar))
        return keys

    def statistics(self) -> dict[str, int]:
        """Index size statistics (for benchmarks and logging).

        Memoized while frozen — benchmarks and serve's catalog hit this
        repeatedly and the distinct-value sum walks every value index.
        The memo is invalidated by :meth:`thaw` / :meth:`merge_partial`
        (the only paths that change the counts) and published as a
        fully-built dict, with callers handed a copy, so the lock-free
        read path never observes a partial entry or a shared live dict.
        """
        cached = self._statistics_cache
        if cached is not None:
            return dict(cached)
        stats = {
            "objects": self.total_objects,
            "terms": len(self._terms),
            "kinds": len(self._value_indexes),
            "distinct_values": sum(
                len(index) for index in self._value_indexes.values()
            ),
        }
        if self._frozen:
            self._statistics_cache = stats
        return dict(stats)
