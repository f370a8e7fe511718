"""DetectionSession: a prepared, reusable detection run.

A session runs schema inference, generates the object descriptions,
and builds the :class:`~repro.core.index.CorpusIndex` and the
classifier **once** per ``(corpus, mapping, real-world type, config)``
and then answers many questions against the standing structures:

* :meth:`DetectionSession.detect` — a full batch run through the
  execution engine, optionally at an overridden ``theta_cand`` so
  threshold sweeps amortize the index;
* :meth:`DetectionSession.match` — single-object duplicate lookup: the
  partners a full ``detect()`` would report for that object, found via
  the index's similar-value groups instead of a corpus-wide pass;
* :meth:`DetectionSession.extend` — incremental ingestion of a new
  source, clustered against prime representatives
  (:class:`~repro.framework.incremental.IncrementalDeduplicator`, the
  merge/purge adaptation the paper plans to adopt);
* :meth:`DetectionSession.explain` — an immutable :class:`Explanation`
  value per pair.

The session is the seam future caching work plugs into: the
index, similarity, and classifier are built in one place and shared by
every entry point.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .._lazy import resolve
from ..core.config import DogmatixConfig, check_thresholds
from ..core.index import CorpusIndex, IndexPartial
from ..core.object_filter import ObjectFilter
from ..core.similarity import DogmatixSimilarity
from ..framework.classifier import ThresholdClassifier
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..xmlkit.tree import Element, strip_positions
from .corpus import Corpus, SourceLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.policy import ExecutionPolicy
    from ..framework.incremental import IncrementalDeduplicator
    from ..framework.result import DetectionResult

#: Distinct theta_cand values whose filter kept-sets a session memoizes
#: (LRU).  Small on purpose: a serving sweep touches a handful of
#: thresholds; an adversarial client scanning thetas must not grow
#: session memory without bound.
_KEPT_CACHE_SIZE = 8


@dataclass(frozen=True)
class Match:
    """One duplicate partner found by :meth:`DetectionSession.match`."""

    object_id: int
    similarity: float
    path: str


@dataclass(frozen=True)
class Explanation:
    """Why one pair scored the way it did (immutable snapshot).

    Every field is computed at call time from the session's standing
    index.
    """

    left: int
    right: int
    similarity: float
    similar_pairs: tuple[tuple[str, str], ...]
    contradictory_pairs: tuple[tuple[str, str], ...]
    non_specified_left: tuple[str, ...]
    non_specified_right: tuple[str, ...]
    set_soft_idf_similar: float
    set_soft_idf_contradictory: float

    def lines(self) -> list[str]:
        """Human-readable breakdown (one string per line)."""
        out = [f"similarity({self.left}, {self.right}) = {self.similarity:.3f}"]
        for a, b in self.similar_pairs:
            out.append(f"  similar:        {a}  ~  {b}")
        for a, b in self.contradictory_pairs:
            out.append(f"  contradictory:  {a}  vs  {b}")
        for t in self.non_specified_left:
            out.append(f"  non-specified (left only, no penalty): {t}")
        for t in self.non_specified_right:
            out.append(f"  non-specified (right only, no penalty): {t}")
        return out


@dataclass(frozen=True)
class IncrementalUpdate:
    """Result of one :meth:`DetectionSession.extend` call."""

    added: tuple[ObjectDescription, ...]
    #: ``(object_id, cluster_index)`` per added object, in stream order.
    assignments: tuple[tuple[int, int], ...]
    #: All clusters with >= 2 members after this update.
    duplicate_clusters: tuple[tuple[int, ...], ...]


class DetectionSession:
    """A detection run prepared once and queried many times.

    Parameters
    ----------
    corpus:
        A :class:`Corpus`, or anything a corpus accepts (a source, a
        document, or a sequence of either).
    mapping:
        The real-world type mapping *M*.
    real_world_type:
        The candidate type to deduplicate.
    config:
        All DogmatiX knobs; defaults to the paper configuration.
    ods:
        An externally prepared candidate set (the snapshot store passes
        the ODs it decoded); otherwise steps 1-3 generate it from the
        corpus.  Either way the index is built here, over these ODs.
    """

    def __init__(
        self,
        corpus: Union[Corpus, SourceLike, Iterable[SourceLike]],
        mapping: TypeMapping,
        real_world_type: str,
        config: Optional[DogmatixConfig] = None,
        *,
        ods: Optional[Sequence[ObjectDescription]] = None,
    ) -> None:
        self.corpus = corpus if isinstance(corpus, Corpus) else Corpus(corpus)
        self.mapping = mapping
        self.real_world_type = real_world_type
        self.config = config or DogmatixConfig()
        self._ods: list[ObjectDescription] = (
            list(ods)
            if ods is not None
            else self.corpus.generate_ods(mapping, real_world_type, self.config)
        )
        self._by_id: dict[int, ObjectDescription] = {
            od.object_id: od for od in self._ods
        }
        self._indexed_ids = frozenset(self._by_id)
        self._index = CorpusIndex(self._ods, mapping, self.config.theta_tuple)
        self._similarity = DogmatixSimilarity(
            self._index, semantics=self.config.similar_semantics
        )
        self._classifier = ThresholdClassifier(
            self._similarity,
            self.config.theta_cand,
            possible_threshold=self.config.possible_threshold,
        )
        #: How many times this session built a corpus index (always 1;
        #: exposed so benchmarks can assert amortization).
        self.index_builds = 1
        #: theta_cand -> kept id set, LRU-bounded; guarded by
        #: ``_kept_lock`` (bookkeeping only — the O(n) filter pass
        #: itself runs outside the lock, see :meth:`_kept_for`).
        self._kept_cache: OrderedDict[float, frozenset[int]] = OrderedDict()
        self._kept_lock = threading.Lock()
        self._incremental: Optional[IncrementalDeduplicator] = None
        # Externally supplied ODs need not be numbered 0..n-1.
        self._next_id = max(self._by_id, default=-1) + 1
        # Foreign sentinel ids count downward from strictly below every
        # corpus id; extend() only ever allocates upward from _next_id,
        # so the ranges can never meet.  itertools.count.__next__ is a
        # single C-level step — concurrent match() calls on foreign
        # elements can never draw the same id (see _foreign_object_id).
        self._foreign_ids = itertools.count(
            min(0, min(self._by_id, default=0)) - 1, -1
        )
        self._last_filter: Optional[ObjectFilter] = None
        # The standing index is now served read-only: match() runs
        # lock-free across threads, backed by this assertion seam.
        self._index.freeze()

    @classmethod
    def from_ods(
        cls,
        ods: Sequence[ObjectDescription],
        mapping: TypeMapping,
        real_world_type: str,
        config: Optional[DogmatixConfig] = None,
    ) -> "DetectionSession":
        """Session over externally prepared ODs (no corpus generation).

        Used by pipelines that build descriptions themselves
        (Definition 2 allows ODs not constrained by any data source).
        ``extend``/``match`` with XML elements need corpus schemas, so
        add sources before using them.
        """
        return cls(Corpus(), mapping, real_world_type, config, ods=ods)

    # ------------------------------------------------------------------
    # Standing structures
    # ------------------------------------------------------------------
    @property
    def ods(self) -> Sequence[ObjectDescription]:
        """The indexed candidate set (including ``extend()``-ed objects)."""
        return tuple(self._ods)

    @property
    def index(self) -> CorpusIndex:
        return self._index

    @property
    def similarity(self) -> DogmatixSimilarity:
        return self._similarity

    @property
    def classifier(self) -> ThresholdClassifier:
        return self._classifier

    @property
    def object_filter(self) -> Optional[ObjectFilter]:
        """The filter of the most recent :meth:`detect` run, if any."""
        return self._last_filter

    @property
    def incremental(self) -> Optional[IncrementalDeduplicator]:
        """The incremental deduplicator, once :meth:`extend` has run."""
        return self._incremental

    def object_path(self, object_id: int) -> str:
        od = self._by_id.get(object_id)
        if od is None or od.element is None:
            return f"object:{object_id}"
        return od.element.absolute_path()

    # ------------------------------------------------------------------
    # Batch detection
    # ------------------------------------------------------------------
    def detect(
        self,
        theta_cand: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> DetectionResult:
        """Steps 4-6 against the standing index (engine-batched).

        ``theta_cand`` overrides the classification threshold for this
        run only — the index and similarity (which depend on
        ``theta_tuple``, not ``theta_cand``) are reused, so a threshold
        sweep pays for index construction once.  ``policy`` overrides
        the execution policy the same way (results stay
        bit-identical under any worker count).  A ``theta_cand`` no run
        could use raises ``ValueError`` (:func:`check_thresholds`).
        """
        result, self._last_filter = resolve("repro.api.batch:detect")(
            self, self._theta(theta_cand), policy
        )
        return result

    def _theta(self, theta_cand: Optional[float]) -> float:
        """The configured threshold, or the checked override."""
        config = self.config
        if theta_cand is None:
            return config.theta_cand
        check_thresholds(config.theta_tuple, theta_cand, config.possible_threshold)
        return theta_cand

    # ------------------------------------------------------------------
    # Single-object lookup
    # ------------------------------------------------------------------
    def match(
        self,
        target: Union[int, ObjectDescription, Element],
        theta_cand: Optional[float] = None,
        include_possible: bool = False,
    ) -> list[Match]:
        """Duplicate partners of one object against the standing index.

        Returns exactly the partners a full :meth:`detect` (at the same
        threshold) reports for that object, without running the batch:
        candidates come from the index's similar-value groups — a pair
        without a directly similar comparable tuple has ``ODT≈ = ∅``
        and similarity 0, so nothing above a positive threshold is ever
        missed.  The object filter, when enabled, is honored both for
        the queried object and for its candidates.

        ``target`` may be an object id of the candidate set, any
        :class:`ObjectDescription` (also external ones), or an XML
        element — a corpus element resolves to its OD; a foreign
        element gets an OD generated on the fly from the session's
        description selection.

        Matches are sorted by descending similarity; with
        ``include_possible`` pairs in the C2 band (when configured) are
        appended after the duplicates.  ``theta_cand`` is checked as by
        :meth:`detect`.
        """
        theta = self._theta(theta_cand)
        od = self._resolve_od(target)
        in_index = (
            od.object_id in self._indexed_ids
            and self._by_id.get(od.object_id) is od
        )
        kept = self._kept_for(theta)
        if kept is not None:
            if in_index and od.object_id not in kept:
                return []  # detect() prunes every pair of this object
            if not in_index and not ObjectFilter(self._index, theta).keep(od):
                return []
        candidate_ids = self._similar_object_ids(od)
        if in_index:
            candidate_ids.discard(od.object_id)
        if kept is not None:
            candidate_ids &= kept
        possible = self.config.possible_threshold
        matches: list[Match] = []
        for candidate_id in sorted(candidate_ids):
            score = self._similarity(od, self._by_id[candidate_id])
            if score > theta or (
                include_possible and possible is not None and score > possible
            ):
                matches.append(
                    Match(candidate_id, score, self.object_path(candidate_id))
                )
        matches.sort(key=lambda match: (-match.similarity, match.object_id))
        return matches

    def _similar_object_ids(self, od: ObjectDescription) -> set[int]:
        """Ids of the indexed objects holding a value similar to one of
        ``od``'s, per kind (``od`` itself among them when indexed).

        A pair outside this set has ``ODT≈ = ∅`` and similarity 0, so
        it is the candidate set of :meth:`match` and the blocking hook
        of :meth:`extend`'s incremental stream alike.
        """
        found: set[int] = set()
        for odt in od.tuples:
            found |= self._index.objects_with_similar(
                self._index.key_of(odt.name), odt.value
            )
        return found

    def _kept_for(self, theta: float) -> Optional[frozenset[int]]:
        """Ids surviving the object filter at ``theta`` (None = no filter).

        Memoized per ``theta`` in a small LRU (not just at the default
        threshold — a served ``match(theta_cand=...)`` at any sweep
        point must not re-run the O(n) filter pass per request).
        Publication is single-assignment: the set is built fully
        outside the lock and installed with ``setdefault``, so a
        concurrent reader sees either nothing or one complete
        frozenset, and the first writer wins — every caller at a given
        theta gets the *same* object.  ``extend()`` clears the cache
        (filter outcomes depend on the index) behind its writer lock.
        """
        if not self.config.use_object_filter:
            return None
        with self._kept_lock:
            cached = self._kept_cache.get(theta)
            if cached is not None:
                self._kept_cache.move_to_end(theta)
                return cached
        object_filter = ObjectFilter(self._index, theta)
        kept = frozenset(
            od.object_id for od in self._ods if object_filter.keep(od)
        )
        with self._kept_lock:
            kept = self._kept_cache.setdefault(theta, kept)
            self._kept_cache.move_to_end(theta)
            while len(self._kept_cache) > _KEPT_CACHE_SIZE:
                self._kept_cache.popitem(last=False)
        return kept

    def _resolve_od(
        self, target: Union[int, ObjectDescription, Element]
    ) -> ObjectDescription:
        if isinstance(target, ObjectDescription):
            return target
        if isinstance(target, int):
            od = self._by_id.get(target)
            if od is None:
                raise KeyError(f"no object with id {target} in this session")
            return od
        if isinstance(target, Element):
            for od in self._ods:
                if od.element is target:
                    return od
            return self._describe_element(target)
        raise TypeError(
            f"cannot match a {type(target).__name__}; pass an object id, "
            "an ObjectDescription, or an XML element"
        )

    def _foreign_object_id(self) -> int:
        """A fresh sentinel id strictly outside the corpus id space.

        Foreign ODs must never share an id with an indexed object:
        :class:`~repro.core.object_filter.ObjectFilter` and the index
        searches exclude ``od.object_id`` as "the object itself", so a
        colliding id would silently drop a *real* corpus object's
        evidence (e.g. the foreign element's one duplicate) from the
        shared-information search.  Each call returns a *new* id —
        per-id memos (``ObjectFilter.decide``) must never conflate two
        different foreign elements either.

        Allocation is atomic: the old read-modify-write on an instance
        attribute let two concurrent ``match()`` calls draw the same
        sentinel, conflating two foreign elements in any shared per-id
        memo.  ``itertools.count`` advances in one C-level step under
        the GIL, and the counter starts strictly below every corpus id
        (``extend()`` only allocates upward), so ids are unique without
        a lock.
        """
        return next(self._foreign_ids)

    def _describe_element(self, element: Element) -> ObjectDescription:
        """OD for a foreign element of the candidate type."""
        generic = strip_positions(element.absolute_path())
        if generic not in self.mapping.xpaths_of(self.real_world_type):
            raise ValueError(
                f"element at {generic!r} is not a {self.real_world_type!r} "
                "candidate under this session's mapping"
            )
        for source in self.corpus:
            declaration = self.corpus.schema_of(source).get(generic)
            if declaration is not None:
                description = self.config.selector.description_definition(
                    declaration, include_empty=self.config.include_empty
                )
                return description.generate_od(self._foreign_object_id(), element)
        raise ValueError(
            f"no corpus schema declares {generic!r}; add a source with "
            "that structure first"
        )

    # ------------------------------------------------------------------
    # Incremental ingestion
    # ------------------------------------------------------------------
    def extend(
        self,
        source: SourceLike,
        check_members_on_miss: bool = False,
    ) -> IncrementalUpdate:
        """Ingest a new source incrementally (merge/purge style).

        The source's candidates are clustered against the *prime
        representatives* of the clusters formed so far, and only of
        those holding an object with a value similar to one of theirs
        (:meth:`_similar_object_ids` is the stream's blocking hook) —
        comparisons grow with what an object's values reach, not with
        the corpus or its cluster count.  The first call seeds the
        stream with the session's existing candidate set, so extension
        clusters are consistent with the corpus.

        The standing index grows with every call: an
        :class:`~repro.core.index.IndexPartial` over the new ODs is
        delta-merged into it *before* any comparison, so the softIDF
        statistics, similar-value groups, and blocking view cover the
        extension — subsequent :meth:`match` and :meth:`detect` calls
        see the extended objects exactly as a session rebuilt over the
        grown corpus would (bit-identical results; pinned by
        ``tests/test_write_path.py``).  The merge keeps every memoized
        similar-value group the new values do not touch, so the filter
        pass the next :meth:`match` re-runs (f(OD_i) reads the object
        count, which moved for everyone) costs arithmetic, not searches.
        """
        added_source = self.corpus.add_source(source)
        new_ods = self.corpus.generate_ods(
            self.mapping,
            self.real_world_type,
            self.config,
            sources=[added_source],
            next_id=self._next_id,
        )
        # repro: allow[RPR004] extend() is the session's one writer: it
        # runs behind the per-session writer lock when serving (see
        # repro.serve.sessions) and single-threaded otherwise
        self._next_id += len(new_ods)
        # Delta-merge the index first: clustering (and every later
        # query) scores against statistics that include the new data,
        # like a fresh build over the grown corpus would.  The index is
        # pinned read-only for concurrent match() readers; extend() is
        # the one sanctioned writer (serialize it behind a per-session
        # writer lock when serving, e.g. repro.serve's registry), so it
        # thaws for the merge and re-freezes unconditionally.
        self._index.thaw()
        try:
            self._index.merge_partial(
                IndexPartial.from_ods(new_ods, self.mapping, q=self._index.q)
            )
        finally:
            self._index.freeze()
        with self._kept_lock:
            self._kept_cache.clear()  # filter outcomes depend on the index
        if self._incremental is None:
            # once per session: only a session that is written to loads
            # the incremental stream and its representatives
            from ..framework.incremental import IncrementalDeduplicator

            self._incremental = IncrementalDeduplicator(
                self._similarity,
                self.config.theta_cand,
                check_members_on_miss=check_members_on_miss,
                candidates=self._similar_object_ids,
            )
            self._incremental.add_all(self._ods)
        self._ods.extend(new_ods)
        # repro: allow[RPR004] writer-lock-serialized (see _next_id note)
        self._indexed_ids |= frozenset(od.object_id for od in new_ods)
        assignments: list[tuple[int, int]] = []
        for od in new_ods:
            self._by_id[od.object_id] = od
            assignments.append((od.object_id, self._incremental.add(od)))
        return IncrementalUpdate(
            added=tuple(new_ods),
            assignments=tuple(assignments),
            duplicate_clusters=tuple(
                tuple(cluster)
                for cluster in self._incremental.duplicate_clusters()
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self,
        left: Union[int, ObjectDescription, Element],
        right: Union[int, ObjectDescription, Element],
    ) -> Explanation:
        """An immutable similarity breakdown for one pair."""
        od_left = self._resolve_od(left)
        od_right = self._resolve_od(right)
        raw = self._similarity.explain(od_left, od_right)
        return Explanation(
            left=od_left.object_id,
            right=od_right.object_id,
            similarity=float(raw["similarity"]),  # type: ignore[arg-type]
            similar_pairs=tuple(raw["similar_pairs"]),  # type: ignore[arg-type]
            contradictory_pairs=tuple(raw["contradictory_pairs"]),  # type: ignore[arg-type]
            non_specified_left=tuple(raw["non_specified_left"]),  # type: ignore[arg-type]
            non_specified_right=tuple(raw["non_specified_right"]),  # type: ignore[arg-type]
            set_soft_idf_similar=float(raw["setSoftIDF_similar"]),  # type: ignore[arg-type]
            set_soft_idf_contradictory=float(raw["setSoftIDF_contradictory"]),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DetectionSession {self.real_world_type!r}: "
            f"{len(self._ods)} candidates, {len(self.corpus)} sources>"
        )

