"""Similar and contradictory OD-tuple matching (Section 5.1).

Given two ODs, the pairwise comparison partitions their tuples into:

* **similar pairs** ``ODT≈`` — comparable tuples with
  ``odtDist < θ_tuple``, selected as a one-to-one matching, lowest
  distance first (each tuple describes one piece of information and is
  consumed by its best match);
* **contradictory pairs** ``ODT≠`` — comparable tuples left unmatched
  on both sides are paired greedily by *highest* distance (the paper's
  Boston / New York example): at most ``min(#left, #right)`` pairs, so
  differing cardinalities leave leftovers;
* **non-specified data** — everything else: tuples with no comparable
  counterpart at all.  These influence neither similarity nor
  difference (requirement 4 of the similarity measure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..framework import ObjectDescription, ODTuple, TypeMapping
from ..strings import bound_verdict, ned_cached, within_normalized


@dataclass
class TupleMatching:
    """Result of matching two ODs' tuples."""

    similar: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    contradictory: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    non_specified_left: list[ODTuple] = field(default_factory=list)
    non_specified_right: list[ODTuple] = field(default_factory=list)


#: Similar-pair semantics: "matching" is the one-to-one greedy matching
#: documented in DESIGN.md; "all-pairs" is the paper's literal Eq. 4
#: (every comparable pair below θ_tuple joins ODT≈, so one tuple can be
#: counted several times and sim can exceed what any single alignment
#: supports).  The ablation benchmark contrasts the two.
SEMANTICS = ("matching", "all-pairs")


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


def similar_pairs_exist(
    od_i: ObjectDescription,
    od_j: ObjectDescription,
    mapping: TypeMapping,
    theta_tuple: float,
) -> bool:
    """Fast existence check for any similar comparable pair.

    Used by tests and by comparison-reduction sanity checks; avoids the
    full distance table via thresholded comparisons.
    """
    by_key: dict[str, list[str]] = {}
    for odt in od_i.tuples:
        by_key.setdefault(mapping.comparison_key(odt.name), []).append(odt.value)
    for odt in od_j.tuples:
        values = by_key.get(mapping.comparison_key(odt.name))
        if not values:
            continue
        for value in values:
            if within_normalized(value, odt.value, theta_tuple):
                return True
    return False
