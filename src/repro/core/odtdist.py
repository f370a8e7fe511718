"""OD tuple distance (Definition 7 of the paper).

``odtDist(odt_i, odt_j)`` is 1 when the tuples' names are not comparable
according to the mapping *M*, and the normalized edit distance of the
values otherwise.  Two tuples are *similar* when their distance is
strictly below θ_tuple.
"""

from __future__ import annotations

from ..framework.mapping import TypeMapping
from ..framework.od import ODTuple
from ..strings.levenshtein import normalized_edit_distance, within_normalized


def odt_dist(odt_i: ODTuple, odt_j: ODTuple, mapping: TypeMapping) -> float:
    """Definition 7: 1 for incomparable tuples, else ned of the values."""
    if not mapping.comparable(odt_i.name, odt_j.name):
        return 1.0
    return normalized_edit_distance(odt_i.value, odt_j.value)


def odt_similar(
    odt_i: ODTuple, odt_j: ODTuple, mapping: TypeMapping, theta_tuple: float
) -> bool:
    """``odtDist < θ_tuple``, evaluated with the thresholded check.

    Note the strict inequality (Equation 4): with θ_tuple = 0 nothing is
    similar, not even identical values — callers use θ_tuple > 0.
    """
    if not mapping.comparable(odt_i.name, odt_j.name):
        return False
    return within_normalized(odt_i.value, odt_j.value, theta_tuple)
