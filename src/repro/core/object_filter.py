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
"""

from __future__ import annotations

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


def filter_score(index: CorpusIndex, od: ObjectDescription) -> float:
    """f(OD_i): each tuple of ``od`` classified (:func:`tuple_class`) and
    summed in one pass, in tuple order, over
    :meth:`CorpusIndex.term_idf`, the singleton softIDF."""
    shared_idf = 0.0
    unique_idf = 0.0
    key_of = index.key_of
    for odt in od.tuples:
        key = key_of(odt.name)
        kind = tuple_class(index, key, odt.value, od.object_id)
        if kind == SHARED:
            shared_idf += index.term_idf(key, odt.value)
        elif kind == UNIQUE:
            unique_idf += index.term_idf(key, odt.value)
    denominator = shared_idf + unique_idf
    return shared_idf / denominator if denominator > 0 else 0.0


class ObjectFilter:
    """f(OD_i) with an ``f <= θ_cand`` pruning rule.

    The standalone form of the filter, for the evaluation harness and
    pipelines built by hand (a session keeps its own per-object map
    instead).  f is a pure function of the (immutable) corpus index and
    the object's tuples, so it is memoized per ``object_id``: asking
    twice — ``score()`` then ``keep()`` — repeats no similar-value
    search.  Each entry is published by one dict store of a float, so
    concurrent readers need no lock; two that race on one object both
    compute the same f and store equal values.
    """

    def __init__(self, index: CorpusIndex, theta_cand: float) -> None:
        if not 0 <= theta_cand <= 1:
            raise ValueError(f"theta_cand must be in [0, 1], got {theta_cand}")
        self.index = index
        self.theta_cand = theta_cand
        self._scores: dict[int, float] = {}

    def score(self, od: ObjectDescription) -> float:
        """f(OD_i) per Equation 9 (memoized per object id)."""
        score = self._scores.get(od.object_id)
        if score is None:
            score = self._scores[od.object_id] = filter_score(self.index, od)
        return score

    def keep(self, od: ObjectDescription) -> bool:
        """Pruning predicate for :class:`ObjectFilterPruning`:
        ``f(OD_i) > θ_cand``."""
        return self.score(od) > self.theta_cand
