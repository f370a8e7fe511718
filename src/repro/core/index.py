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

The index keeps its term state in one :class:`IndexPartial` — the
structure an ingest worker builds and a delta ``extend()`` folds in —
and reads its dicts directly; :meth:`IndexPartial.merge` is the one
fold.  ``freeze()`` / ``thaw()`` only flip the read-only pin: a frozen
index reads the state it was built in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..strings.qgram import QGramIndex, require_qgram_strategy

#: Gram length of every value index the library builds; nothing above
#: the index constructors selects another.
DEFAULT_Q = 2

#: Queries the corpus does not hold (values of foreign ``match()``
#: elements) whose similar-value groups stay memoized at once; the memo
#: is dropped wholesale beyond that, so a daemon's memory does not grow
#: with the distinct values clients post.
_FOREIGN_CACHE_SIZE = 4096


def require_dict_encoding(encoding: object) -> None:
    """Raise ``ValueError`` unless ``encoding`` is ``"dict"``.

    The compact encoding was removed; the ``encoding`` / ``index_encoding``
    names that remain accept only the one index representation.
    """
    if encoding != "dict":
        raise ValueError(
            f"index encoding {encoding!r} is not available: the compact "
            "index encoding was removed and 'dict' is the only value"
        )


def set_union_size(left, right) -> int:
    """``|left ∪ right|`` without materializing the union set:
    membership-count the smaller side against the larger instead of
    allocating ``left | right`` just to take its length."""
    if len(left) < len(right):
        left, right = right, left
    return len(left) + sum(1 for item in right if item not in left)


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
    the term state a :class:`CorpusIndex` keeps, and the delta
    :meth:`CorpusIndex.merge_partial` folds into it for incremental
    ingestion.

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

    def to_record(self) -> dict:
        """The partial as a snapshot stores it: |Ω|, q, and per
        comparison key, in the partial's own order, the key's value
        index (:meth:`QGramIndex.to_record`) and each value's occurrence
        row (parallel to the values): the object id itself when one
        object holds the value (most rows), else the ids.  A key's
        object row is not stored: it is the union of its rows.

        A row of several ids is the partial's own set — the writer's
        ``default=`` hook sorts each one as it encodes it — and the
        value indexes' lists and dicts are their own too: encode the
        record at once, never keep or change it.
        """
        occurrences = self.occurrences
        kinds = []
        for key, value_index in self.value_indexes.items():
            kind = {"key": key, **value_index.to_record()}
            rows = [occurrences[(key, value)] for value in kind["values"]]
            kind["rows"] = [min(row) if len(row) == 1 else row for row in rows]
            kinds.append(kind)
        return {"total_objects": self.total_objects, "q": self.q, "kinds": kinds}

    @classmethod
    def from_record(cls, record: dict, object_ids: set[int]) -> "IndexPartial":
        """Inverse of :meth:`to_record` over a corpus whose (distinct)
        object ids are ``object_ids``: no gram is counted and no
        comparison key is looked up.

        The record's lists and dicts become the partial's (the caller
        gives them up; rows become sets).  What is adopted is checked
        first: |Ω| is ``len(object_ids)`` and q is :data:`DEFAULT_Q`
        (the q of every index the library builds); keys are
        distinct strings; per key, the value index as
        :meth:`QGramIndex.from_record` checks it and one row per value,
        an ``int`` or a non-empty list of them, all in ``object_ids``.
        Anything else raises ``TypeError``, ``ValueError`` or
        ``KeyError``.
        """
        total, q, kinds = record["total_objects"], record["q"], record["kinds"]
        if type(total) is not int or type(q) is not int or type(kinds) is not list:
            raise TypeError("total_objects, q or kinds malformed")
        if total != len(object_ids) or q != DEFAULT_Q:
            raise ValueError(f"an index of {total} objects at q={q}")
        partial = cls(total_objects=total, q=q)
        occurrences = partial.occurrences
        for kind in kinds:
            key, rows = kind["key"], kind["rows"]
            if (
                type(key) is not str
                or key in partial.value_indexes
                or type(rows) is not list
            ):
                raise TypeError("a key or its rows malformed")
            value_index = QGramIndex.from_record(kind, q)
            values = kind["values"]
            # set() of anything but a list of ids raises or holds a non-id
            row_sets = [{row} if type(row) is int else set(row) for row in rows]
            held = set().union(*row_sets)
            if (
                len(rows) != len(values)
                or not all(row_sets)
                or not {*map(type, chain.from_iterable(row_sets))} <= {int}
                or not held <= object_ids
            ):
                raise ValueError(f"the rows of key {key!r} do not fit its values")
            occurrences.update(zip(zip(repeat(key), values), row_sets))
            partial.objects_by_key[key] = held
            partial.value_indexes[key] = value_index
        return partial

    def merge(self, other: "IndexPartial") -> "IndexPartial":
        """Fold another partial into this one (in place); returns self.

        The one merge implementation: :meth:`CorpusIndex.merge_partial`
        folds a delta into the index's own partial through it.  The
        incoming partial's sets, buckets and repeated-gram counts are
        copied, never aliased, so later folds into this partial cannot
        mutate ``other``.
        """
        if other.q != self.q:
            raise ValueError(
                f"cannot merge a q={other.q} partial into a q={self.q} partial"
            )
        # repro: allow[RPR004] only the sanctioned writer merges into a
        # served partial: CorpusIndex.merge_partial, which raises when
        # frozen and runs behind the session writer lock
        self.total_objects += other.total_objects
        occurrences = self.occurrences
        for term, ids in other.occurrences.items():
            found = occurrences.get(term)
            if found is None:
                occurrences[term] = set(ids)
            else:
                found |= ids
        objects_by_key = self.objects_by_key
        for key, ids in other.objects_by_key.items():
            by_key = objects_by_key.get(key)
            if by_key is None:
                objects_by_key[key] = set(ids)
            else:
                by_key |= ids
        value_indexes = self.value_indexes
        for key, value_index in other.value_indexes.items():
            index = value_indexes.get(key)
            if index is None:
                index = value_indexes[key] = QGramIndex(q=value_index.q)
            index.merge_from(value_index)
        return self


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
        #: The term state every read goes through: (key, value) -> object
        #: ids, key -> object ids, and key -> similar-value index over the
        #: distinct values of that kind.  One tuple-scan implementation
        #: for every construction path: the serial build is the
        #: single-partial case of the merge, so serial/parallel/delta
        #: parity holds by construction.  Nobody else holds this
        #: partial, so it is adopted, not copied.
        self._state = IndexPartial.from_ods(ods, mapping, q=q)
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
        #: read-only-after-build pin; see :meth:`freeze`
        self._frozen = False

    @property
    def total_objects(self) -> int:
        """|Ω|: the number of objects indexed."""
        return self._state.total_objects

    @property
    def q(self) -> int:
        """Gram length of every value index."""
        return self._state.q

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
        ``partial``.  The partial is copied in, never adopted: it stays
        the caller's to change.  (A warm open is the one caller that
        gives its partial up — the one ``IndexStore.load`` decoded with
        :meth:`IndexPartial.from_record` — and :meth:`_adopt` takes it
        as it is.)
        """
        index = cls((), mapping, theta_tuple, q=partial.q)
        index.merge_partial(partial)
        return index

    @classmethod
    def _adopt(
        cls,
        partial: IndexPartial,
        mapping: TypeMapping,
        theta_tuple: float,
    ) -> "CorpusIndex":
        """Index whose term state *is* ``partial``, which nobody else
        holds (a snapshot's, decoded by :meth:`IndexPartial.from_record`):
        no tuple is scanned, nothing is copied or merged."""
        index = cls((), mapping, theta_tuple, q=partial.q)
        index._state = partial
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
        live = self._state.value_indexes
        memo = self._similar_cache
        added = [
            (key, value)
            for key, incoming in partial.value_indexes.items()
            for value in incoming.values
            if value not in live.get(key, ())
        ] if memo else []
        self._state.merge(partial)
        self._foreign_cache = {}
        for key, value in added:
            for query in self.similar_values(key, value):
                if query != value:  # its own group was just memoized
                    memo.pop((key, query), None)
        self._pair_idf_cache.clear()

    def to_record(self) -> dict:
        """The term state as a snapshot stores it
        (:meth:`IndexPartial.to_record`): live rows and buckets, for
        encoding at once, never for keeping or changing."""
        return self._state.to_record()

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
        index.
        """
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
        return frozenset(self._state.occurrences.get((key, value), ()))

    def objects_with_key(self, key: str) -> frozenset[int]:
        """Ids of objects that specify any data of this kind (snapshot)."""
        return frozenset(self._state.objects_by_key.get(key, ()))

    def key_elsewhere(self, key: str, object_id: int) -> bool:
        """``bool(objects_with_key(key) - {object_id})``, without the copy."""
        row = self._state.objects_by_key.get(key, ())
        return len(row) > (object_id in row)  # more holders than itself

    def term_idf(self, key: str, value: str) -> float:
        """softIDF of one term, log(|Ω| / |O_odt|) — :meth:`pair_idf` of
        the term with itself, read in O(1); an unseen term counts once."""
        state = self._state
        denominator = max(1, len(state.occurrences.get((key, value), ())))
        return math.log(max(state.total_objects, denominator) / denominator)

    def pair_idf(self, key_i: str, value_i: str, key_j: str, value_j: str) -> float:
        """Memoized softIDF of a term pair (Definition 8).

        log(|Ω| / |O_i ∪ O_j|); unseen terms count as one occurrence.
        The union cardinality is *counted*, never materialized: a
        membership-count of the smaller set against the larger, exactly
        ``len(O_i | O_j)``; a term with itself reads ``len(O)``
        (:meth:`term_idf`).
        """
        if (key_i, value_i) > (key_j, value_j):  # canonical order
            key_i, value_i, key_j, value_j = key_j, value_j, key_i, value_i
        cache_key = (key_i, value_i, key_j, value_j)
        cached = self._pair_idf_cache.get(cache_key)
        if cached is not None:
            return cached
        if key_i == key_j and value_i == value_j:  # O ∪ O is O
            value = self.term_idf(key_i, value_i)
        else:
            occurrences = self._state.occurrences
            denominator = max(
                1,
                set_union_size(
                    occurrences.get((key_i, value_i), ()),
                    occurrences.get((key_j, value_j), ()),
                ),
            )
            total = max(self.total_objects, denominator)
            value = math.log(total / denominator)
        # Memoized only between terms of the corpus: pairs with a
        # foreign match() value are as many as clients care to post.
        held = self._state.value_indexes
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
        index = self._state.value_indexes.get(key)
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
        held = self._state.value_indexes.get(key, ())
        if b in held:
            return b in self.similar_values(key, a)
        if a in held:
            return a in self.similar_values(key, b)
        return None

    def objects_with_similar(self, key: str, value: str) -> set[int]:
        """Ids of objects holding a tuple of kind ``key`` whose value is
        similar to ``value``."""
        found: set[int] = set()
        occurrences = self._state.occurrences
        for similar in self.similar_values(key, value):
            found.update(occurrences.get((key, similar), ()))
        return found

    def similar_elsewhere(self, key: str, value: str, object_id: int) -> bool:
        """``bool(objects_with_similar(key, value) - {object_id})``
        without the union: some similar value's occurrence row holds an
        object other than ``object_id``."""
        occurrences = self._state.occurrences
        for similar in self.similar_values(key, value):
            row = occurrences.get((key, similar), ())
            if len(row) > (object_id in row):  # more holders than itself
                return True
        return False

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
        return tuple(self._state.occurrences)

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
        """Index size statistics (for benchmarks and logging), counted
        afresh on each call: a sum of ``len()`` over the value indexes."""
        state = self._state
        return {
            "objects": state.total_objects,
            "terms": len(state.occurrences),
            "kinds": len(state.value_indexes),
            "distinct_values": sum(
                len(index) for index in state.value_indexes.values()
            ),
        }
