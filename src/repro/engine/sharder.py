"""Sharded pair generation: step 4 partitioned across workers.

The serial and ``process`` backends enumerate candidate pairs in the
parent (:class:`~repro.framework.pruning.SharedTupleBlocking` et al.)
and at best parallelize classification.  This module makes *generation*
itself shardable: block structure is an independence boundary — pairs
from disjoint blocks can be enumerated and scored with no cross-talk —
so the blocking keys are partitioned into shards and each worker
enumerates only its own share.

Correctness hinges on two deterministic rules:

* **Shard assignment** uses :func:`stable_hash` (CRC-32 of the key's
  ``repr``) — Python's built-in ``hash`` is randomized per process and
  would scatter blocks differently in every worker.
* **Pair ownership**: one pair may appear in several blocks, possibly
  on different shards.  Pairs whose blocks all live on one shard are
  purely block-local; pairs whose blocks the shard assignment splits
  form the *cross-shard residual* and need a deterministic owner every
  worker can compute locally.  Two pairs of ownership rules apply in
  order: a pair whose objects share a **direct** term (same kind, same
  value — free to check, no similarity searches) belongs to its minimal
  direct common term; only a pair related exclusively through *similar*
  values falls back to the minimal common block key, which costs the
  similarity-expanded key sets of the two objects (lazy, memoized).
  Either way each pair is emitted exactly once, by exactly one shard,
  with no inter-worker communication.

The emitted pair *set* equals the wrapped blocking's pair set, and the
pipeline orders result pairs canonically, so the sharded backend is
bit-identical to serial for any shard count — the invariant
``tests/test_shard_equivalence.py`` fuzzes.

The **object filter** shards the same way (``filter_in_workers``): the
per-object f(OD_i) pass — whose similar-value searches dominate step 4
on large corpora — partitions candidates across shards by stable hash
(:func:`owned_filter_objects`), each worker decides its own objects
against its local index, and the parent merges the decisions back into
candidate order, so ``pruned_object_ids`` (and every downstream byte)
match the serial parent-side pass exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from ..framework.classifier import Classifier
from ..framework.od import ObjectDescription
from .policy import SHARD_MODES


def stable_hash(value: object) -> int:
    """Process-stable hash (CRC-32 over ``repr``).

    Built-in ``hash`` is seeded per interpreter for strings, so it can
    never be used to agree on shard assignment across worker processes.
    Block keys must therefore have a deterministic ``repr`` (strings,
    numbers, and tuples of those qualify).
    """
    if isinstance(value, bytes):
        data = value
    else:
        data = repr(value).encode("utf-8", "backslashreplace")
    return zlib.crc32(data)


@dataclass(frozen=True)
class PairShard:
    """One unit of worker-side pair generation."""

    shard_id: int
    shard_count: int

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if not 0 <= self.shard_id < self.shard_count:
            raise ValueError(
                f"shard_id must be in [0, {self.shard_count}), got {self.shard_id}"
            )


@runtime_checkable
class ObjectDecision(Protocol):
    """What sharded filter evaluation needs of a per-object decision.

    Structurally satisfied by
    :class:`repro.core.object_filter.FilterDecision` — typed here so the
    engine stays import-free of :mod:`repro.core` (which imports the
    engine).
    """

    object_id: int
    kept: bool


#: Evaluates the object filter for one OD and returns its decision
#: (e.g. ``ObjectFilter.decide``).  Must be deterministic: every worker
#: and the parent fallback must reach identical decisions.
ObjectDecider = Callable[[ObjectDescription], ObjectDecision]


def owned_filter_objects(
    ods: Sequence[ObjectDescription], shard_id: int, shard_count: int
) -> list[ObjectDescription]:
    """The candidate objects one filter shard owns.

    Object-filter evaluation is a per-object pass, so its sharding is
    simpler than pair ownership: each object belongs to exactly one
    shard by process-stable hash of its id.  Every worker and the
    parent agree on the partition with no communication, and the union
    over ``range(shard_count)`` is exactly ``ods``.
    """
    PairShard(shard_id, shard_count)  # validates the id
    return [
        od for od in ods if stable_hash(od.object_id) % shard_count == shard_id
    ]


@runtime_checkable
class BlockIndex(Protocol):
    """Inverted view of a blocking structure.

    ``block_terms()`` yields every candidate block key; ``block_members``
    resolves one key to its member object ids; ``od_terms`` gives one
    object's *direct* terms (no similarity expansion — must be cheap);
    ``block_keys`` gives the object's full similarity-expanded key set.
    The contracts tying them together:

    * ``object_id in block_members(term)`` iff ``term in block_keys(od)``;
    * ``od_terms(od)`` is a subset of ``block_keys(od)`` whenever the
      object appears in any block (self-similarity).

    :class:`repro.core.index.CorpusIndex` satisfies this with one
    similar-value search per term — which is what lets a shard resolve
    *only its own* blocks instead of rebuilding the full structure.
    """

    def block_terms(self) -> Iterable[object]: ...  # pragma: no cover

    def block_members(
        self, term: object
    ) -> Iterable[int]: ...  # pragma: no cover

    def od_terms(
        self, od: ObjectDescription
    ) -> Iterable[object]: ...  # pragma: no cover

    def block_keys(
        self, od: ObjectDescription
    ) -> Iterable[object]: ...  # pragma: no cover


@runtime_checkable
class ShardablePairSource(Protocol):
    """A pair source whose enumeration partitions into disjoint shards.

    ``pairs()`` (the plain :class:`~repro.framework.pruning.PairSource`
    protocol) must equal the concatenation of ``shard_pairs(ods, s)``
    for ``s`` in ``range(shard_count)``; the shards' pair sets must be
    pairwise disjoint.
    """

    shard_count: int

    def pairs(
        self, ods: Sequence[ObjectDescription]
    ) -> Iterator[tuple[int, int]]: ...  # pragma: no cover - protocol

    def shard_pairs(
        self, ods: Sequence[ObjectDescription], shard_id: int
    ) -> Iterator[tuple[int, int]]: ...  # pragma: no cover - protocol


class ShardRuntimeFactory(Protocol):
    """Builds, inside a worker, everything one shard run needs.

    Must be picklable; called once per worker (by the pool initializer)
    with the full element-stripped OD instance.  Returns the classifier
    and the shardable pair source — built together so implementations
    can share one expensive substrate (for DogmatiX: one
    :class:`~repro.core.index.CorpusIndex` drives both similarity and
    blocking keys).

    A factory that also evaluates the object filter inside the workers
    advertises it with a truthy ``filters_objects`` attribute and
    attaches an :data:`ObjectDecider` to the returned source's
    ``object_filter``; the executor then runs a filter phase (each
    worker decides its :func:`owned_filter_objects`) before pair
    enumeration and merges the decisions in candidate order.
    """

    shard_count: int

    def __call__(
        self, ods: Sequence[ObjectDescription]
    ) -> tuple[Classifier, ShardablePairSource]: ...  # pragma: no cover


class ShardedPairSource:
    """Partitions candidate-pair enumeration into deterministic shards.

    Parameters
    ----------
    shard_count:
        Number of shards; enumeration order is shard 0 .. N-1 when used
        as a plain serial :class:`PairSource`.
    block_index:
        A :class:`BlockIndex` (e.g. the DogmatiX
        :class:`~repro.core.index.CorpusIndex`).  A shard resolves the
        members of *its own* block terms only — under
        ``shard_by="block"`` that is one similar-value search per owned
        term, about ``1/shard_count`` of the work a parent-side
        blocking pass performs.  Ownership of pairs the blocking key
        splits across shards resolves through direct terms first (free)
        and lazily memoized expanded key sets only for similar-valued
        pairs.  ``None`` means all pairs (the quadratic baseline),
        sharded by object rows.
    shard_by:
        ``"block"`` — blocks are hashed onto shards and each shard
        enumerates only its own blocks; ``"object"`` — ownership is
        hashed per pair, so even one giant block spreads evenly (at the
        cost of every shard walking the full block structure).
    kept_ids:
        Object-filter survivors; ``None`` disables filtering (unless
        ``object_filter`` is given).  Pass pre-computed ids when the
        caller already ran the filter; only enumeration is restricted
        here.
    pruned_ids:
        Ids the caller's object filter pruned, carried for the
        pipeline's :class:`~repro.framework.result.DetectionResult`
        (mirrors ``ObjectFilterPruning.pruned_ids``).
    object_filter:
        An :data:`ObjectDecider` evaluating f(OD_i), for runs whose
        filter decisions are *not* pre-computed.  Two uses: (a) a
        worker evaluates it over the objects of one filter shard
        (:func:`owned_filter_objects`) and ships the decisions back;
        (b) the serial fallback — when no pool ever forms — evaluates
        it lazily over all candidates, in candidate order, on first
        enumeration.  Either way :meth:`adopt_filter_decisions`
        installs the merged outcome, after which ``kept_ids`` /
        ``pruned_ids`` / ``filter_decisions`` read exactly like a
        parent-side pass.
    """

    def __init__(
        self,
        shard_count: int,
        block_index: BlockIndex | None = None,
        shard_by: str = "block",
        kept_ids: Iterable[int] | None = None,
        pruned_ids: Iterable[int] = (),
        object_filter: ObjectDecider | None = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if shard_by not in SHARD_MODES:
            raise ValueError(
                f"shard_by must be one of {SHARD_MODES}, got {shard_by!r}"
            )
        self.shard_count = shard_count
        self.block_index = block_index
        self.shard_by = shard_by
        self.kept_ids = None if kept_ids is None else frozenset(kept_ids)
        self.pruned_ids = list(pruned_ids)
        self.object_filter = object_filter
        #: Filter decisions in candidate order, once evaluated/adopted.
        self.filter_decisions: list[ObjectDecision] = []
        # Ownership memos, shared across shards and calls (both depend
        # only on the provider): per-object direct terms (cheap) and
        # similarity-expanded key sets (searches; resolved lazily, only
        # for pairs without a direct common term).
        self._od_direct: dict[int, frozenset[str]] = {}
        self._od_keys: dict[int, frozenset[str]] = {}
        # Canonically sorted block terms (a worker serves several
        # shards; the term universe is fixed per provider).
        self._terms: list[tuple[str, object]] | None = None

    # ------------------------------------------------------------------
    # PairSource protocol (serial / parent-side use)
    # ------------------------------------------------------------------
    def pairs(self, ods: Sequence[ObjectDescription]) -> Iterator[tuple[int, int]]:
        """All pairs, shard by shard (the serial view of this source).

        A filter-carrying source re-evaluates its filter here, eagerly,
        for *this* call's candidate set — like
        :class:`~repro.framework.pruning.ObjectFilterPruning`, a reused
        source must neither report a previous run's pruned ids nor
        enumerate against its stale kept set, and an undrained stream
        must still leave the filter outcome readable.  (Worker-side
        enumeration goes through :meth:`shard_pairs` directly, where
        the merged kept ids of the pool's filter phase are installed
        beforehand and must survive.)
        """
        if self.object_filter is not None:
            self.kept_ids = None
            self.pruned_ids = []
            self.filter_decisions = []
            self._ensure_filtered(ods)
        return self._all_shards(ods)

    def _all_shards(
        self, ods: Sequence[ObjectDescription]
    ) -> Iterator[tuple[int, int]]:
        for shard_id in range(self.shard_count):
            yield from self.shard_pairs(ods, shard_id)

    # ------------------------------------------------------------------
    # Shard-local enumeration
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Object-filter evaluation (worker-sharded or lazy serial fallback)
    # ------------------------------------------------------------------
    def adopt_filter_decisions(self, decisions: Iterable[ObjectDecision]) -> None:
        """Install filter decisions merged elsewhere (candidate order).

        Overwrites ``kept_ids``/``pruned_ids``: the decisions *are* the
        filter outcome, whether a pool merged per-shard results or the
        serial fallback just evaluated them here.
        """
        self.filter_decisions = list(decisions)
        self.kept_ids = frozenset(
            decision.object_id
            for decision in self.filter_decisions
            if decision.kept
        )
        self.pruned_ids = [
            decision.object_id
            for decision in self.filter_decisions
            if not decision.kept
        ]

    def _ensure_filtered(self, ods: Sequence[ObjectDescription]) -> None:
        """Serial fallback: run the pending filter pass in this process.

        Only fires when an :data:`ObjectDecider` was supplied but no
        ``kept_ids`` exist yet — i.e. no worker pool ran the sharded
        pass (``workers=1``, an unpicklable runtime, a broken pool).
        Evaluates in candidate order, like the classic parent-side
        pass, so ``pruned_ids`` stay bit-identical across modes.
        """
        if self.object_filter is None or self.kept_ids is not None:
            return
        self.adopt_filter_decisions(self.object_filter(od) for od in ods)

    def shard_pairs(
        self, ods: Sequence[ObjectDescription], shard_id: int
    ) -> Iterator[tuple[int, int]]:
        """The pairs shard ``shard_id`` owns, exactly once each.

        Validation and the pending filter pass run eagerly (not at
        first ``next()``), so ``pruned_ids`` are correct as soon as
        this returns — even for a stream that is never drained.
        """
        PairShard(shard_id, self.shard_count)  # validates the id
        self._ensure_filtered(ods)
        kept = (
            list(ods)
            if self.kept_ids is None
            else [od for od in ods if od.object_id in self.kept_ids]
        )
        if self.block_index is not None:
            return self._block_shard(kept, shard_id)
        return self._all_pairs_shard(kept, shard_id)

    def _shard_of_key(self, canon_key: str) -> int:
        return stable_hash(canon_key) % self.shard_count

    def _shard_of_pair(self, a: int, b: int) -> int:
        return stable_hash(b"%d:%d" % (a, b)) % self.shard_count

    # -- all-pairs (no blocking) ---------------------------------------
    def _all_pairs_shard(
        self, kept: Sequence[ObjectDescription], shard_id: int
    ) -> Iterator[tuple[int, int]]:
        ids = [od.object_id for od in kept]
        if self.shard_by == "object":
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    if self._shard_of_pair(ids[a], ids[b]) == shard_id:
                        yield ids[a], ids[b]
        else:  # row sharding: shard owns the rows of its left objects
            for a in range(len(ids)):
                if stable_hash(ids[a]) % self.shard_count != shard_id:
                    continue
                for b in range(a + 1, len(ids)):
                    yield ids[a], ids[b]

    # -- blocking (inverted provider; one search per owned term) -------
    def _od_canon_direct(self, od: ObjectDescription) -> frozenset[str]:
        assert self.block_index is not None
        cached = self._od_direct.get(od.object_id)
        if cached is None:
            cached = frozenset(
                repr(term) for term in set(self.block_index.od_terms(od))
            )
            self._od_direct[od.object_id] = cached
        return cached

    def _od_canon_keys(self, od: ObjectDescription) -> frozenset[str]:
        assert self.block_index is not None
        cached = self._od_keys.get(od.object_id)
        if cached is None:
            cached = frozenset(
                repr(key) for key in set(self.block_index.block_keys(od))
            )
            self._od_keys[od.object_id] = cached
        return cached

    def _owner_key(self, od_a: ObjectDescription, od_b: ObjectDescription) -> str:
        """The canonical key of the block that owns this pair.

        Ownership must be a pure function of the pair so that every
        block enumerating it — on any shard — agrees without
        communication.  ``repr`` canonicalization gives keys a total
        order and a process-stable hash input independent of their
        type.  Two tiers, by cost: a direct common term (same kind,
        same value; no searches) wins if one exists — in realistic
        corpora that covers almost every blocked pair — else the pair
        is related through similar values only and its minimal common
        *expanded* key decides, paying the two objects' memoized
        similarity-expanded key sets.
        """
        direct = self._od_canon_direct(od_a) & self._od_canon_direct(od_b)
        if direct:
            return min(direct)
        return min(self._od_canon_keys(od_a) & self._od_canon_keys(od_b))

    def _block_shard(
        self, kept: Sequence[ObjectDescription], shard_id: int
    ) -> Iterator[tuple[int, int]]:
        """Enumerate via :class:`BlockIndex`: resolve owned terms only.

        Under ``shard_by="block"`` a shard touches just the terms that
        hash to it — ~``1/shard_count`` of the similar-value searches.
        ``shard_by="object"`` walks every term (ownership is per pair),
        trading that saving for balance under block skew.
        """
        index = self.block_index
        assert index is not None
        kept_by_id = {od.object_id: od for od in kept}
        by_pair = self.shard_by == "object"
        if self._terms is None:
            self._terms = sorted(
                (repr(term), term) for term in index.block_terms()
            )
        for canon_key, term in self._terms:
            if not by_pair and self._shard_of_key(canon_key) != shard_id:
                continue
            members = sorted(
                member
                for member in index.block_members(term)
                if member in kept_by_id
            )
            for a in range(len(members)):
                od_a = kept_by_id[members[a]]
                for b in range(a + 1, len(members)):
                    # Cheap per-pair hash filter first (object mode
                    # walks every block on every shard, so ~(W-1)/W of
                    # the pairs are discarded here before the ownership
                    # computation).
                    if by_pair and self._shard_of_pair(
                        members[a], members[b]
                    ) != shard_id:
                        continue
                    # Emitting only at the pair's owner block dedups
                    # across blocks — both within this shard and across
                    # shards (the cross-shard residual) — without any
                    # set of seen pairs.
                    if self._owner_key(od_a, kept_by_id[members[b]]) != canon_key:
                        continue
                    yield members[a], members[b]

    def __repr__(self) -> str:
        mode = "all-pairs" if self.block_index is None else "blocking"
        return (
            f"<ShardedPairSource {mode} shard_by={self.shard_by!r} "
            f"shards={self.shard_count}>"
        )


@dataclass(frozen=True)
class AssembledShardFactory:
    """Shard runtime from independent classifier-factory + source parts.

    The executor uses this when a pipeline provides a picklable
    :class:`ShardablePairSource` but no combined
    :class:`ShardRuntimeFactory`.  Prefer a combined factory when the
    classifier and the source share an expensive substrate — this
    assembly ships the source by value, which for index-backed blocking
    means pickling the index.
    """

    classifier_factory: Callable[[Sequence[ObjectDescription]], Classifier]
    source: ShardablePairSource

    @property
    def shard_count(self) -> int:
        return self.source.shard_count

    @property
    def filters_objects(self) -> bool:
        """Worker-side filter evaluation, iff the source carries one."""
        return getattr(self.source, "object_filter", None) is not None

    def __call__(
        self, ods: Sequence[ObjectDescription]
    ) -> tuple[Classifier, ShardablePairSource]:
        return self.classifier_factory(ods), self.source
