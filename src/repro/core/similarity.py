"""The DogmatiX similarity measure (Equation 8).

    sim(OD_i, OD_j) = setSoftIDF(ODT≈) /
                      (setSoftIDF(ODT≠) + setSoftIDF(ODT≈))

The measure weighs the identifying power of what two objects share
against the identifying power of where they contradict; non-specified
data influences neither side.  It is symmetric and ranges over [0, 1]
(both properties are tested).  A pair with nothing comparable scores 0.
"""

from __future__ import annotations

from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from .index import CorpusIndex
from .matching import TupleMatching, match_tuples


class DogmatixSimilarity:
    """Callable similarity over ODs, bound to a corpus index.

    The corpus index supplies the softIDF occurrence statistics; θ_tuple
    is shared with the index so matching and blocking agree.
    """

    def __init__(self, index: CorpusIndex, semantics: str = "matching") -> None:
        self.index = index
        self.mapping: TypeMapping = index.mapping
        self.theta_tuple = index.theta_tuple
        self.semantics = semantics

    def __call__(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        return self.similarity(od_i, od_j)

    def similarity(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        """Equation 8 for one pair."""
        return _score(self._match(od_i, od_j))

    def _match(self, od_i: ObjectDescription, od_j: ObjectDescription) -> TupleMatching:
        return match_tuples(
            od_i, od_j, self.mapping, self.theta_tuple, self.semantics, self.index
        )

    def explain(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> dict[str, object]:
        """Human-readable breakdown of one comparison (for debugging
        and the examples)."""
        matching = self._match(od_i, od_j)
        return {
            "similar_pairs": [
                (str(a), str(b)) for a, b in matching.similar
            ],
            "contradictory_pairs": [
                (str(a), str(b)) for a, b in matching.contradictory
            ],
            "non_specified_left": [str(t) for t in matching.non_specified_left],
            "non_specified_right": [str(t) for t in matching.non_specified_right],
            "setSoftIDF_similar": sum(matching.similar_idf),
            "setSoftIDF_contradictory": sum(matching.contradictory_idf),
            "similarity": _score(matching),
        }


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
