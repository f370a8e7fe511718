"""The DogmatiX similarity measure (Equation 8).

    sim(OD_i, OD_j) = setSoftIDF(ODT≈) /
                      (setSoftIDF(ODT≠) + setSoftIDF(ODT≈))

The measure weighs the identifying power of what two objects share
against the identifying power of where they contradict; non-specified
data influences neither side.  It is symmetric and ranges over [0, 1]
(both properties are tested).  A pair with nothing comparable scores 0.

One tuple matching per pair (:func:`~repro.core.matching.match_tuples`
against the corpus index) carries the pair lists and their soft-IDFs;
``similarity()`` sums it, and ``DetectionSession.explain()`` shows the
same matching and the same sum.
"""

from __future__ import annotations

from ..framework.od import ObjectDescription
from .index import CorpusIndex
from .matching import SEMANTICS, TupleMatching, match_tuples


class DogmatixSimilarity:
    """Callable similarity over ODs, bound to a corpus index.

    The corpus index supplies the mapping, θ_tuple and the softIDF
    occurrence statistics, so matching and blocking agree.
    """

    def __init__(self, index: CorpusIndex, semantics: str = "matching") -> None:
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}; choose from {SEMANTICS}")
        self.index = index
        self.semantics = semantics

    def __call__(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        return self.similarity(od_i, od_j)

    def similarity(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        """Equation 8 for one pair."""
        return _score(self._match(od_i, od_j))

    def _match(self, od_i: ObjectDescription, od_j: ObjectDescription) -> TupleMatching:
        return match_tuples(od_i, od_j, self.index, self.semantics)


def _score(matching: TupleMatching) -> float:
    """``sim`` of a matching made against the index.  The soft-IDFs go
    through ``sum()``, in matching order: float addition is
    order-sensitive and ``sum`` is compensated from Python 3.12 on."""
    shared = sum(matching.similar_idf)
    denominator = shared + sum(matching.contradictory_idf)
    if denominator <= 0:
        # Nothing comparable, or only zero-IDF (ubiquitous) terms:
        # no evidence either way — not duplicates.
        return 0.0
    return shared / denominator
