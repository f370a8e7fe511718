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

The corpus index is the one input besides the two ODs: it supplies the
mapping, θ_tuple, each pair's class (Definition 7, read from the
similar-value groups step 4 memoized) and each pair's soft-IDF
(Equation 8).  The index-less form of this matcher is the oracle in
``tests/reference/match_tuples.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..framework.od import ODTuple, ObjectDescription
from ..strings.levenshtein import ned_cached
from .index import CorpusIndex


@dataclass
class TupleMatching:
    """Result of matching two ODs' tuples."""

    similar: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    contradictory: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    non_specified_left: list[ODTuple] = field(default_factory=list)
    non_specified_right: list[ODTuple] = field(default_factory=list)
    #: softIDF of each pair above, in the same order (not compared)
    similar_idf: list[float] = field(default_factory=list, compare=False)
    contradictory_idf: list[float] = field(default_factory=list, compare=False)


#: Similar-pair semantics: "matching" is the one-to-one greedy matching
#: documented in DESIGN.md; "all-pairs" is the paper's literal Eq. 4
#: (every comparable pair below θ_tuple joins ODT≈, so one tuple can be
#: counted several times and sim can exceed what any single alignment
#: supports).  The ablation benchmark contrasts the two.
SEMANTICS = ("matching", "all-pairs")


def match_tuples(
    od_i: ObjectDescription,
    od_j: ObjectDescription,
    index: CorpusIndex,
    semantics: str = "matching",
) -> TupleMatching:
    """Partition the tuples of two ODs into similar / contradictory /
    non-specified, per kind of information.

    Step 5's one matcher: ``similarity()`` sums its soft-IDFs,
    ``explain()`` shows its lists.  The index supplies the mapping,
    θ_tuple, each pair's class (its similar-value groups) and each
    pair's soft-IDF.  A kind single-valued on both sides is one
    verdict; only a multi-valued kind needs ordering.  ``semantics`` is
    one of :data:`SEMANTICS`; :class:`~repro.core.similarity.DogmatixSimilarity`
    checks it.
    """
    kinds_i = od_i.by_kind(index.mapping)
    kinds_j = od_j.by_kind(index.mapping)
    result = TupleMatching()
    for key, left in kinds_i.items():
        right = kinds_j.get(key)
        if right is None:
            result.non_specified_left.extend(left)
        elif len(left) == 1 == len(right):
            a, b = left[0], right[0]
            _record(result, index, key, a, b, _similar(index, key, a.value, b.value))
        else:
            _match_kind(key, left, right, result, semantics, index)
    for key, right in kinds_j.items():
        if key not in kinds_i:
            result.non_specified_right.extend(right)
    return result


def _similar(index: CorpusIndex, key: str, a: str, b: str) -> bool:
    """``ned(a, b) < θ_tuple``, read from the index's similar-value
    groups (step 4 filled them; they decide every pair with a value the
    corpus holds); the distance itself only where the index holds
    neither value."""
    verdict = index.similar_verdict(key, a, b)
    if verdict is None:
        verdict = ned_cached(a, b) < index.theta_tuple
    return verdict


def _record(
    result: TupleMatching,
    index: CorpusIndex,
    key: str,
    a: ODTuple,
    b: ODTuple,
    similar: bool,
) -> None:
    """Append one matched pair and its soft-IDF."""
    if similar:
        pairs, idfs = result.similar, result.similar_idf
    else:
        pairs, idfs = result.contradictory, result.contradictory_idf
    pairs.append((a, b))
    idfs.append(index.pair_idf(key, a.value, key, b.value))


def _match_kind(
    key: str,
    left: Sequence[ODTuple],
    right: Sequence[ODTuple],
    result: TupleMatching,
    semantics: str,
    index: CorpusIndex,
) -> None:
    """Match one kind of information between two ODs.

    :func:`_similar` decides on which side of θ_tuple a pair falls, so
    the O(n·m) DP runs only for pairs whose *order* matters:
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
            verdict = _similar(index, key, odt_a.value, odt_b.value)
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
            _record(result, index, key, left[a], right[b], True)
    else:
        # Similar pairs: lowest distance first, one-to-one.
        for a, b in similar:
            if a in used_left or b in used_right:
                continue
            used_left.add(a)
            used_right.add(b)
            _record(result, index, key, left[a], right[b], True)
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
        _record(result, index, key, left[a], right[b], False)
    # Leftovers on either side are non-specified data.
    result.non_specified_left.extend(
        odt for slot, odt in enumerate(left) if slot not in used_left
    )
    result.non_specified_right.extend(
        odt for slot, odt in enumerate(right) if slot not in used_right
    )
