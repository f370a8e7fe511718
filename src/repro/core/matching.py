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
from typing import Optional, Sequence

from ..framework.mapping import TypeMapping
from ..framework.od import ODTuple, ObjectDescription
from ..strings.bounds import bound_verdict
from ..strings.levenshtein import ned_cached
from .index import CorpusIndex


@dataclass
class TupleMatching:
    """Result of matching two ODs' tuples."""

    similar: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    contradictory: list[tuple[ODTuple, ODTuple]] = field(default_factory=list)
    non_specified_left: list[ODTuple] = field(default_factory=list)
    non_specified_right: list[ODTuple] = field(default_factory=list)
    #: softIDF of each pair above, when matched against a corpus index
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
    mapping: TypeMapping,
    theta_tuple: float,
    semantics: str = "matching",
    index: Optional[CorpusIndex] = None,
) -> TupleMatching:
    """Partition the tuples of two ODs into similar / contradictory /
    non-specified, per kind of information.

    Step 5's one matcher: ``similarity()`` sums its soft-IDFs,
    ``explain()`` shows its lists.  With ``index`` (built at
    ``theta_tuple``) a pair's class is read from the similar-value
    groups and its soft-IDF recorded.  A kind single-valued on both
    sides is one verdict; only a multi-valued kind needs ordering.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; choose from {SEMANTICS}")
    if index is not None and index.theta_tuple != theta_tuple:
        raise ValueError("the index was built at another theta_tuple")
    kinds_i = od_i.by_kind(mapping)
    kinds_j = od_j.by_kind(mapping)
    result = TupleMatching()
    for key, left in kinds_i.items():
        right = kinds_j.get(key)
        if right is None:
            result.non_specified_left.extend(left)
        elif len(left) == 1 == len(right):
            a, b = left[0], right[0]
            verdict = _similar(index, key, a.value, b.value, theta_tuple)
            _record(result, index, key, a, b, verdict)
        else:
            _match_kind(key, left, right, theta_tuple, result, semantics, index)
    for key, right in kinds_j.items():
        if key not in kinds_i:
            result.non_specified_right.extend(right)
    return result


def _similar(
    index: Optional[CorpusIndex], key: str, a: str, b: str, theta_tuple: float
) -> bool:
    """``ned(a, b) < theta_tuple``, cheapest evidence first: the index's
    similar-value groups (step 4 filled them; they decide every pair
    with a value the corpus holds), then the O(n) distance bounds, and
    the DP only where neither can tell."""
    verdict = index.similar_verdict(key, a, b) if index is not None else None
    if verdict is None:
        verdict = bound_verdict(a, b, theta_tuple)
        if verdict is None:
            verdict = ned_cached(a, b) < theta_tuple
    return verdict


def _record(
    result: TupleMatching,
    index: Optional[CorpusIndex],
    key: str,
    a: ODTuple,
    b: ODTuple,
    similar: bool,
) -> None:
    """Append one matched pair, and its soft-IDF where there is an index."""
    if similar:
        pairs, idfs = result.similar, result.similar_idf
    else:
        pairs, idfs = result.contradictory, result.contradictory_idf
    pairs.append((a, b))
    if index is not None:
        idfs.append(index.pair_idf(key, a.value, key, b.value))


def _match_kind(
    key: str,
    left: Sequence[ODTuple],
    right: Sequence[ODTuple],
    theta_tuple: float,
    result: TupleMatching,
    semantics: str = "matching",
    index: Optional[CorpusIndex] = None,
) -> None:
    """Match one kind of information between two ODs.

    Cheap check first: :func:`_similar` decides on which side of
    ``theta_tuple`` a pair falls, so the
    O(n·m) DP runs only for pairs nothing cheaper can separate from the
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
            verdict = _similar(index, key, odt_a.value, odt_b.value, theta_tuple)
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
