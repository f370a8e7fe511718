"""The object filter f (Section 5.2, Equation 9).

f(OD_i) weighs the information OD_i shares with *any* other object
against the information unique to OD_i:

* ``S_shared`` — tuples of OD_i similar (``ned < θ_tuple``) to a
  comparable tuple of at least one other object;
* ``S_unique`` — tuples of OD_i that are comparable to other objects'
  data (their kind is specified elsewhere) but similar to none of it —
  the per-object rendering of the paper's ⋂ ODT≠;
* tuples of a kind no other object specifies influence neither set
  (they are non-specified data in every comparison).

If ``f(OD_i) <= θ_cand`` the object is pruned: every pair involving it
is skipped in one step.  The paper presents f as an upper bound of
``sim``; it is a heuristic bound (a pair can reach sim = 1 whenever one
object's specified data is entirely matched), so — like the paper — we
evaluate the filter empirically via recall/precision (Fig. 8), and the
test-suite measures the bound-violation rate instead of asserting it to
be zero.

The per-tuple softIDF uses the singleton form log(|Ω|/|O_odt|); shared
tuples enter the numerator exactly as their best-case pair softIDF
would, keeping f comparable in scale to sim.

f is computed in two steps.  :func:`tuple_classes` sorts an object's
tuples into shared (S), unique (U) and non-specified (N); the class
reads the similar-value groups and occurrence rows but not |Ω|.
:func:`filter_score` is the arithmetic over those classes, and every
score moves whenever |Ω| does.  A write that only adds objects can move
a class only one way, N → U → S: groups and rows only grow, so S stays
S, and a class moves only where the delta adds a value or an object
under that tuple's comparison key (:meth:`CorpusIndex.lone_holders`
names the tuples it can reach).  A session therefore keeps its classes
across writes and re-sums the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..framework.od import ObjectDescription
from .index import CorpusIndex

#: Classes of an OD tuple under f: shared, unique, non-specified.
SHARED, UNIQUE, NON_SPECIFIED = "S", "U", "N"


def tuple_class(index: CorpusIndex, key: str, value: str, object_id: int) -> str:
    """Class of one tuple ``(key, value)`` of object ``object_id``.

    Shared when some value similar to it is held by another object (an
    existence check over the group's occurrence rows: no union is
    built), unique when another object specifies the kind at all,
    non-specified otherwise.
    """
    if index.similar_elsewhere(key, value, object_id):
        return SHARED
    if index.key_elsewhere(key, object_id):
        return UNIQUE
    return NON_SPECIFIED


def tuple_classes(index: CorpusIndex, od: ObjectDescription) -> tuple[str, ...]:
    """The class of every tuple of ``od``, in tuple order."""
    key_of = index.key_of
    return tuple(
        tuple_class(index, key_of(odt.name), odt.value, od.object_id)
        for odt in od.tuples
    )


def reclassified(
    index: CorpusIndex, od: ObjectDescription, classes: tuple[str, ...], key: str
) -> tuple[str, ...]:
    """``classes`` with the non-shared tuples of kind ``key`` classified
    afresh (a write never moves S)."""
    return tuple(
        tuple_class(index, key, odt.value, od.object_id)
        if kind != SHARED and index.key_of(odt.name) == key
        else kind
        for odt, kind in zip(od.tuples, classes)
    )


def filter_score(
    index: CorpusIndex, od: ObjectDescription, classes: tuple[str, ...]
) -> tuple[float, float, float]:
    """``(f, shared softIDF, unique softIDF)`` of ``od`` given the classes
    of its tuples: the sums run in tuple order over
    :meth:`CorpusIndex.term_idf`, the singleton softIDF."""
    shared_idf = 0.0
    unique_idf = 0.0
    key_of = index.key_of
    for odt, kind in zip(od.tuples, classes):
        if kind == SHARED:
            shared_idf += index.term_idf(key_of(odt.name), odt.value)
        elif kind == UNIQUE:
            unique_idf += index.term_idf(key_of(odt.name), odt.value)
    denominator = shared_idf + unique_idf
    score = shared_idf / denominator if denominator > 0 else 0.0
    return score, shared_idf, unique_idf


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of evaluating f on one object."""

    object_id: int
    score: float
    shared_idf: float
    unique_idf: float
    kept: bool


class ObjectFilter:
    """f(OD_i) with an ``f <= θ_cand`` pruning rule.

    The standalone form of the filter, for the evaluation harness and
    pipelines built by hand (a session keeps its own per-object maps
    instead).  Decisions are memoized per ``object_id``: f is a pure
    function of the (immutable) corpus index and the object's tuples,
    so asking twice — ``score()`` then ``keep()`` — must neither
    repeat the similar-value searches nor record a second
    :class:`FilterDecision` (which would double-count ``pruned_count``
    and grow ``decisions`` unboundedly).  ``decisions`` therefore holds
    exactly one entry per evaluated object, in first-evaluation order.

    The memo is safe to read concurrently: like the index's own caches,
    publication is a single ``dict.setdefault`` of a fully built value,
    side effects (the ``decisions`` append) happen only on the winning
    entry, and losers return the winner — so racing readers agree on
    one :class:`FilterDecision` per object and ``decisions`` never
    records a duplicate.  Wasted duplicate *computation* under a race
    is acceptable (f is pure); duplicate *records* are not.
    """

    def __init__(self, index: CorpusIndex, theta_cand: float) -> None:
        if not 0 <= theta_cand <= 1:
            raise ValueError(f"theta_cand must be in [0, 1], got {theta_cand}")
        self.index = index
        self.theta_cand = theta_cand
        self.decisions: list[FilterDecision] = []
        self._memo: dict[int, FilterDecision] = {}

    def score(self, od: ObjectDescription) -> float:
        """f(OD_i) per Equation 9."""
        return self.decide(od).score

    def decide(self, od: ObjectDescription) -> FilterDecision:
        """Evaluate f and record the decision (memoized per object id)."""
        cached = self._memo.get(od.object_id)
        if cached is not None:
            return cached
        score, shared_idf, unique_idf = filter_score(
            self.index, od, tuple_classes(self.index, od)
        )
        decision = FilterDecision(
            object_id=od.object_id,
            score=score,
            shared_idf=shared_idf,
            unique_idf=unique_idf,
            kept=score > self.theta_cand,
        )
        winner = self._memo.setdefault(od.object_id, decision)
        if winner is decision:
            self.decisions.append(decision)
        return winner

    def keep(self, od: ObjectDescription) -> bool:
        """Pruning predicate for :class:`ObjectFilterPruning`."""
        return self.decide(od).kept

    @property
    def pruned_count(self) -> int:
        return sum(1 for decision in self.decisions if not decision.kept)
