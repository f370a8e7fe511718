"""DetectionSession: a prepared, reusable detection run.

A session runs schema inference, generates the object descriptions,
and builds the :class:`~repro.core.index.CorpusIndex` and the
similarity measure **once** per ``(corpus, mapping, real-world type,
config)`` and then answers many questions against the standing
structures:

* :meth:`DetectionSession.detect` — a full batch run, optionally at an
  overridden ``theta_cand`` so threshold sweeps amortize the index;
* :meth:`DetectionSession.match` — single-object duplicate lookup: the
  partners a full ``detect()`` would report for that object, found via
  the index's similar-value groups instead of a corpus-wide pass (both
  run steps 4-5 object by object, through the same filter decisions,
  candidate sets and pair scoring);
* :meth:`DetectionSession.extend` — incremental ingestion of a new
  source, clustered against prime representatives
  (:class:`~repro.framework.incremental.IncrementalDeduplicator`, the
  merge/purge adaptation the paper plans to adopt);
* :meth:`DetectionSession.explain` — an immutable :class:`Explanation`
  value per pair.

The session is the seam future caching work plugs into: the
index and similarity are built in one place and shared by every entry
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .._lazy import resolve
from ..core.config import DogmatixConfig, check_thresholds
from ..core.index import CorpusIndex, IndexPartial
from ..core.object_filter import filter_score
from ..core.similarity import DogmatixSimilarity, _score
from ..framework.classifier import DUPLICATES, POSSIBLE_DUPLICATES
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..xmlkit.tree import Document, Element, strip_positions
from .corpus import Corpus, SourceLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.policy import ExecutionPolicy
    from ..framework.incremental import IncrementalDeduplicator
    from ..framework.result import DetectionResult, ScoredPair

#: One object's partners at a floor: ``(floor, ((candidate id,
#: similarity), ...))``, the candidates that score above ``floor`` in
#: answer order (see :meth:`DetectionSession._listed`).
_Partners = tuple[float, tuple[tuple[int, float], ...]]


@dataclass(frozen=True)
class Match:
    """One duplicate partner found by :meth:`DetectionSession.match`."""

    object_id: int
    similarity: float
    path: str


@dataclass(frozen=True)
class Explanation:
    """Why one pair scored the way it did (immutable snapshot).

    Every field is read from the one tuple matching that
    ``similarity()`` scores, made at call time against the session's
    standing index.
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
        corpus.  The index is built here, over these ODs — unless the
        snapshot store also passes the index state it decoded for them
        (``_state``, an :class:`~repro.core.index.IndexPartial` the
        session adopts as it is).
    """

    def __init__(
        self,
        corpus: Union[Corpus, SourceLike, Iterable[SourceLike]],
        mapping: TypeMapping,
        real_world_type: str,
        config: Optional[DogmatixConfig] = None,
        *,
        ods: Optional[Sequence[ObjectDescription]] = None,
        _state: Optional[IndexPartial] = None,
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
        theta_tuple = self.config.theta_tuple
        self._index = (
            CorpusIndex(self._ods, mapping, theta_tuple)
            if _state is None
            else CorpusIndex._adopt(_state, mapping, theta_tuple)
        )
        self._similarity = DogmatixSimilarity(
            self._index, semantics=self.config.similar_semantics
        )
        #: The per-corpus-state maps, published together by one
        #: assignment (see :meth:`_kept` and :meth:`_listed`): object id
        #: -> f(OD_i), and object id -> its partner list.  Neither
        #: depends on θ_cand.
        self._memo: tuple[dict[int, float], dict[int, _Partners]] = ({}, {})
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
    def incremental(self) -> Optional[IncrementalDeduplicator]:
        """The incremental deduplicator, once :meth:`extend` has run."""
        return self._incremental

    def object_path(self, object_id: int) -> str:
        """The object's XPath, read from its OD (no tree is decoded for
        it), or ``object:<id>`` for an object without an element."""
        od = self._by_id.get(object_id)
        path = None if od is None else od.path
        return f"object:{object_id}" if path is None else path

    # ------------------------------------------------------------------
    # Batch detection
    # ------------------------------------------------------------------
    def detect(
        self,
        theta_cand: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> DetectionResult:
        """Steps 4-6 against the standing index.

        The loop :meth:`match` runs, over every object in id order: an
        object the filter prunes pairs with nothing, and a kept object
        is scored against the kept objects of higher id that hold a
        value similar to one of its own (every kept object of higher id
        when ``use_blocking`` is off), so each unordered pair is scored
        once.  Pairs come out in ``(left, right)`` order — duplicates,
        and the C2 band when one is configured — and the clusters are
        the duplicates' transitive closure, members in id order.

        ``theta_cand`` overrides the classification threshold for this
        run only — the index and similarity (which depend on
        ``theta_tuple``, not ``theta_cand``) are reused, and so are the
        filter scores f(OD_i), which do not depend on it either: a
        threshold sweep pays for index construction and for each
        object's filter score once, and a later :meth:`match` reads the
        scores the run left.  A ``theta_cand`` no run could use raises
        ``ValueError`` (:func:`check_thresholds`).  ``policy`` has no
        effect: a run is one loop in this process.
        """
        theta = self._theta(theta_cand)
        config = self.config
        possible = config.possible_threshold
        floor = theta if possible is None else possible
        ods = sorted(self._ods, key=attrgetter("object_id"))
        kept: list[ObjectDescription] = []
        pruned: list[int] = []
        for od in ods:
            if config.use_object_filter and not self._kept(theta, od.object_id):
                pruned.append(od.object_id)
            else:
                kept.append(od)
        # resolved here: a session that only serves lookups never loads
        # the result types or step 6
        scored_pair = resolve("repro.framework.result:ScoredPair")
        pairs: list[ScoredPair] = []
        compared = 0
        for position, od in enumerate(kept):
            left = od.object_id
            if config.use_blocking:
                candidate_ids = self._kept_ids(
                    theta, {i for i in self._similar_object_ids(od) if i > left}
                )
            else:
                candidate_ids = [other.object_id for other in kept[position + 1 :]]
            compared += len(candidate_ids)
            for right, score in self._scored(od, candidate_ids, floor):
                label = DUPLICATES if score > theta else POSSIBLE_DUPLICATES
                pairs.append(scored_pair(left, right, score, label))
        clusters = resolve("repro.framework.clustering:duplicate_clusters")(
            [(pair.left, pair.right) for pair in pairs if pair.label == DUPLICATES],
            [od.object_id for od in ods],
        )
        return resolve("repro.framework.result:DetectionResult")(
            real_world_type=self.real_world_type,
            ods=ods,
            pairs=pairs,
            clusters=clusters,
            pruned_object_ids=pruned,
            compared_pairs=compared,
        )

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
        the queried object and for its candidates: each one's filter
        score is computed once per corpus state (:meth:`_kept`).

        ``target`` may be an object id of the candidate set, any
        :class:`ObjectDescription` (also external ones), or an XML
        element — a corpus element resolves to its OD; a foreign
        element gets an OD generated on the fly from the session's
        description selection.

        Neither f(OD_i) nor a pair's similarity depends on the
        threshold, so an indexed object's answer is a cut of one
        θ-free partner list, computed once per corpus state at the
        lowest floor asked for (:meth:`_listed`) and kept until a write
        adds objects.  Foreign elements and caller-built ODs are scored
        on every call.  Each call returns a new list of new matches.

        Matches are sorted by descending similarity; with
        ``include_possible`` pairs in the C2 band (when configured) are
        appended after the duplicates.  ``theta_cand`` is checked as by
        :meth:`detect`.
        """
        theta = self._theta(theta_cand)
        od = self._resolve_od(target)
        possible = self.config.possible_threshold
        floor = possible if include_possible and possible is not None else theta
        if self._by_id.get(od.object_id) is not od:
            answer = self._partners(od, theta, floor, False)
        else:
            answer = self._listed(od, theta, floor)
        return [
            Match(candidate_id, score, self.object_path(candidate_id))
            for candidate_id, score in answer
        ]

    def _listed(
        self, od: ObjectDescription, theta: float, floor: float
    ) -> tuple[tuple[int, float], ...]:
        """An indexed object's answer, cut from its partner list.

        The list held at floor ``F`` keeps the candidates with f > F
        that score above ``F`` (nothing when the object's own f is not
        above ``F``).  A lookup at ``theta`` and ``floor`` (θ, or the C2
        band's lower bound) with ``F <= floor <= theta`` keeps of it the
        partners scoring above ``floor`` whose f is above ``theta``, once
        the object's own f is: a higher threshold keeps a subset of both
        the objects and the scores, and the cut keeps the order.  A list
        is computed, and stored over the one held, only when no list is
        held or the held floor is above ``floor``.

        Readers store without a lock, each list by one dict store of an
        immutable value, into the map they fetched: a reader that
        fetched the map a write replaced stores into an orphan, and one
        that stores a higher floor over a lower one only makes a later
        lookup compute again.
        """
        lists = self._memo[1]
        held = lists.get(od.object_id)
        if held is None or held[0] > floor:
            held = lists[od.object_id] = (
                floor,
                self._partners(od, floor, floor, True),
            )
        held_floor, partners = held
        if held_floor == theta:
            return partners
        if not self.config.use_object_filter:
            return tuple(partner for partner in partners if partner[1] > floor)
        if not self._kept(theta, od.object_id):
            return ()
        return tuple(
            (candidate_id, score)
            for candidate_id, score in partners
            if score > floor and self._kept(theta, candidate_id)
        )

    def _partners(
        self,
        od: ObjectDescription,
        theta: float,
        floor: float,
        in_index: bool,
    ) -> tuple[tuple[int, float], ...]:
        """The candidates of ``od`` the object filter keeps at ``theta``
        that score above ``floor``, as ``(candidate id, similarity)``
        pairs in answer order, computed; nothing when the filter prunes
        ``od`` itself."""
        if self.config.use_object_filter:
            if in_index:
                if not self._kept(theta, od.object_id):
                    return ()  # detect() prunes every pair of this object
            elif filter_score(self._index, od) <= theta:
                return ()
        candidate_ids = self._similar_object_ids(od)
        if in_index:
            candidate_ids.discard(od.object_id)
        partners = self._scored(
            od, self._kept_ids(theta, candidate_ids), floor
        )
        partners.sort(key=lambda partner: (-partner[1], partner[0]))
        return tuple(partners)

    def _scored(
        self, od: ObjectDescription, candidate_ids: Iterable[int], floor: float
    ) -> list[tuple[int, float]]:
        """``(candidate id, similarity)`` of each candidate that scores
        above ``floor``, in candidate order: the step 5 of :meth:`match`
        and :meth:`detect` alike.  ``floor`` is θ_cand, or the C2 band's
        lower bound when the band's pairs are wanted (it lies below
        θ_cand, so a duplicate clears it too)."""
        similarity = self._similarity
        by_id = self._by_id
        scored: list[tuple[int, float]] = []
        for candidate_id in candidate_ids:
            score = similarity(od, by_id[candidate_id])
            if score > floor:
                scored.append((candidate_id, score))
        return scored

    def _kept_ids(self, theta: float, object_ids: Iterable[int]) -> list[int]:
        """``object_ids`` in ascending order, without the objects the
        object filter prunes at ``theta`` (when it is on)."""
        if not self.config.use_object_filter:
            return sorted(object_ids)
        return sorted(i for i in object_ids if self._kept(theta, i))

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

    def _kept(self, theta: float, object_id: int) -> bool:
        """Whether the object filter keeps an indexed object at ``theta``:
        ``f(OD_i) > theta``, f from the session's score map.

        The map is filled on first need, so a lookup scores the queried
        object and its candidates, not the corpus
        (:func:`~repro.core.object_filter.filter_score` classifies each
        tuple and sums it).  Every score reads |Ω|, so a write drops the
        map whole and the lookup after it scores the objects it reads
        afresh.

        The map is fetched once and filled without a lock, each entry
        by one dict store of the finished float; a reader that fetched
        the map a write replaced stores into an orphan.
        """
        scores = self._memo[0]
        score = scores.get(object_id)
        if score is None:
            score = scores[object_id] = filter_score(
                self._index, self._by_id[object_id]
            )
        return score > theta

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
            # a stored tree nobody has read holds no element a caller
            # could pass, so only a built tree makes the scan worth it
            if any(
                not isinstance(source.document, Document) or source.document.decoded
                for source in self.corpus
            ):
                for od in self._ods:
                    if od.describes(target):
                        return od
            return self._describe_element(target)
        raise TypeError(
            f"cannot match a {type(target).__name__}; pass an object id, "
            "an ObjectDescription, or an XML element"
        )

    def _foreign_object_id(self) -> int:
        """A fresh sentinel id strictly outside the corpus id space.

        Foreign ODs must never share an id with an indexed object: the
        object filter's tuple classes
        (:func:`~repro.core.object_filter.tuple_class`) exclude
        ``od.object_id`` as "the object itself", so a colliding id would
        silently drop a *real* corpus object's evidence (e.g. the
        foreign element's one duplicate) from the shared-information
        search.  Each call returns a *new* id — a per-id memo must never
        conflate two different foreign elements either.

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
    def extend(self, source: SourceLike) -> IncrementalUpdate:
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
        similar-value group the new values do not touch.  The filter
        scores and the partner lists go (every filter score reads the
        object count, which moved for everyone), so the next
        :meth:`match` scores its partners and the filter scores of the
        objects it reads again (:meth:`_fold`).  A source without
        candidates adds the source and changes no index, score, list or
        memo: no answer can move.
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
        if new_ods:  # a document without candidates changes no memo
            self._fold(new_ods)
        if self._incremental is None:
            # once per session: only a session that is written to loads
            # the incremental stream and its representatives
            from ..framework.incremental import IncrementalDeduplicator

            self._incremental = IncrementalDeduplicator(
                self._similarity,
                self.config.theta_cand,
                candidates=self._similar_object_ids,
            )
            self._incremental.add_all(self._ods)
        self._ods.extend(new_ods)
        assignments = [
            (od.object_id, self._incremental.add(od)) for od in new_ods
        ]
        return IncrementalUpdate(
            added=tuple(new_ods),
            assignments=tuple(assignments),
            duplicate_clusters=tuple(
                tuple(cluster)
                for cluster in self._incremental.duplicate_clusters()
            ),
        )

    def _fold(self, new_ods: list[ObjectDescription]) -> None:
        """Grow the index and the id map by ``new_ods``, then publish the
        per-corpus-state maps anew.

        Delta-merge the index first: clustering (and every later query)
        scores against statistics that include the new data, like a
        fresh build over the grown corpus would.  The index is pinned
        read-only for concurrent match() readers; extend() is the one
        sanctioned writer (serialize it behind a per-session writer
        lock when serving, e.g. repro.serve's registry), so it thaws
        for the merge and re-freezes unconditionally.

        Then the new ids join the id map and empty maps are published
        by one assignment: every filter score reads |Ω| and every
        similarity the softIDF statistics, so nothing held is exact any
        more.  A reader still holding the maps it fetched before can
        only store into an orphan that no later read sees, so no lock
        and no generation counter are needed.
        """
        index = self._index
        delta = IndexPartial.from_ods(new_ods, self.mapping, q=index.q)
        index.thaw()
        try:
            index.merge_partial(delta)
        finally:
            index.freeze()
        for od in new_ods:
            self._by_id[od.object_id] = od
        self._memo = ({}, {})

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
        matching = self._similarity._match(od_left, od_right)
        return Explanation(
            left=od_left.object_id,
            right=od_right.object_id,
            similarity=_score(matching),
            similar_pairs=tuple((str(a), str(b)) for a, b in matching.similar),
            contradictory_pairs=tuple(
                (str(a), str(b)) for a, b in matching.contradictory
            ),
            non_specified_left=tuple(map(str, matching.non_specified_left)),
            non_specified_right=tuple(map(str, matching.non_specified_right)),
            set_soft_idf_similar=float(sum(matching.similar_idf)),
            set_soft_idf_contradictory=float(sum(matching.contradictory_idf)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DetectionSession {self.real_world_type!r}: "
            f"{len(self._ods)} candidates, {len(self.corpus)} sources>"
        )

