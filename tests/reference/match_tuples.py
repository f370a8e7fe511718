"""Step 5 as it stood before verdicts were read from the index, kept as
the oracle.

``match_tuples`` and ``_match_kind`` are ``repro.core.matching``'s, and
``from_matching`` is ``DogmatixSimilarity.from_matching``, as of PR 20:
both ODs are re-grouped by comparison key for every pair, every tuple
pair of a shared kind is classified by ``bound_verdict`` + the
edit-distance kernel, and the score sums ``soft_idf`` (two ``key_of``
per tuple pair) over the matching's pair lists.  Verbatim apart from
this paragraph, the imports, ``set_soft_idf`` (then in
``repro.core.softidf``, now ``reference/softidf.py``) being copied here, and ``from_matching`` being a
function over ``(matching, index)`` without the ``evaluations`` counter
(it was a method).  ``tests/test_core_similarity.py`` holds the shipped
matcher and scorer to it: the four :class:`TupleMatching` lists in
order, and the score as ``float.hex()``.
"""

from __future__ import annotations

from repro.core import CorpusIndex
from repro.core.matching import SEMANTICS, TupleMatching
from repro.framework import ObjectDescription, ODTuple, TypeMapping
from repro.strings import bound_verdict, ned_cached

from .softidf import soft_idf


def match_tuples(
    od_i: ObjectDescription,
    od_j: ObjectDescription,
    mapping: TypeMapping,
    theta_tuple: float,
    semantics: str = "matching",
) -> TupleMatching:
    """Partition the tuples of two ODs into similar / contradictory /
    non-specified, per kind of information."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; choose from {SEMANTICS}")
    by_key_i: dict[str, list[ODTuple]] = {}
    for odt in od_i.tuples:
        by_key_i.setdefault(mapping.comparison_key(odt.name), []).append(odt)
    by_key_j: dict[str, list[ODTuple]] = {}
    for odt in od_j.tuples:
        by_key_j.setdefault(mapping.comparison_key(odt.name), []).append(odt)

    result = TupleMatching()
    for key, left in by_key_i.items():
        right = by_key_j.get(key)
        if right is None:
            result.non_specified_left.extend(left)
            continue
        _match_kind(left, right, theta_tuple, result, semantics)
    for key, right in by_key_j.items():
        if key not in by_key_i:
            result.non_specified_right.extend(right)
    return result


def _match_kind(
    left: list[ODTuple],
    right: list[ODTuple],
    theta_tuple: float,
    result: TupleMatching,
    semantics: str = "matching",
) -> None:
    """Match one kind of information between two ODs.

    Cheap check first: the O(n) distance bounds
    (:func:`~repro.strings.bound_verdict`) decide on which side of
    ``theta_tuple`` most pairs fall, so the
    O(n·m) DP runs only for pairs the bounds cannot separate from the
    threshold — and, lazily below, for pairs whose *order* matters:
    ordering is what decides who matches whom (and the result list
    order the bit-identical parity contract pins), so a class with a
    single candidate pair needs no exact distance at all.
    """

    def exact(pair: tuple[int, int]) -> tuple[float, int, int]:
        a, b = pair
        return ned_cached(left[a].value, right[b].value), a, b

    similar: list[tuple[int, int]] = []
    dissimilar: list[tuple[int, int]] = []
    for a, odt_a in enumerate(left):
        for b, odt_b in enumerate(right):
            verdict = bound_verdict(odt_a.value, odt_b.value, theta_tuple)
            if verdict is None:
                verdict = ned_cached(odt_a.value, odt_b.value) < theta_tuple
            (similar if verdict else dissimilar).append((a, b))
    if len(similar) > 1:
        similar.sort(key=exact)

    used_left: set[int] = set()
    used_right: set[int] = set()
    if semantics == "all-pairs":
        # Paper-literal Eq. 4: every sub-threshold pair is similar.
        for a, b in similar:
            used_left.add(a)
            used_right.add(b)
            result.similar.append((left[a], right[b]))
    else:
        # Similar pairs: lowest distance first, one-to-one.
        for a, b in similar:
            if a in used_left or b in used_right:
                continue
            used_left.add(a)
            used_right.add(b)
            result.similar.append((left[a], right[b]))
    # Contradictory pairs: highest distance first among the unmatched.
    # A pair with an endpoint consumed by the similar phase can never be
    # selected (the used sets only grow), so only the still-active pairs
    # need ordering at all.
    active = [
        (a, b)
        for a, b in dissimilar
        if a not in used_left and b not in used_right
    ]
    if len(active) > 1:
        active.sort(key=exact, reverse=True)
    for a, b in active:
        if a in used_left or b in used_right:
            continue
        used_left.add(a)
        used_right.add(b)
        result.contradictory.append((left[a], right[b]))
    # Leftovers on either side are non-specified data.
    result.non_specified_left.extend(
        odt for index, odt in enumerate(left) if index not in used_left
    )
    result.non_specified_right.extend(
        odt for index, odt in enumerate(right) if index not in used_right
    )


def set_soft_idf(pairs, index: CorpusIndex) -> float:
    """setSoftIDF: total identifying power of a set of tuple pairs."""
    return sum(soft_idf(odt_i, odt_j, index) for odt_i, odt_j in pairs)


def from_matching(matching: TupleMatching, index: CorpusIndex) -> float:
    """Score a precomputed tuple matching."""
    shared = set_soft_idf(matching.similar, index)
    contradictory = set_soft_idf(matching.contradictory, index)
    denominator = shared + contradictory
    if denominator <= 0:
        # Nothing comparable, or only zero-IDF (ubiquitous) terms:
        # no evidence either way — not duplicates.
        return 0.0
    return shared / denominator
