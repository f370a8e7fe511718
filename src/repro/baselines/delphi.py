"""DELPHI-style baseline (Ananthakrishna, Chaudhuri & Ganti, [1]).

DELPHI deduplicates hierarchically organized warehouse tables top-down
and scores pairs with an *asymmetric containment* measure: how much of
one element's information is contained in the other.  The paper
contrasts its own symmetric measure against exactly this property
("'A is duplicate of B' does not imply that 'B is duplicate of A'"),
and notes DELPHI follows a single branch of the hierarchy.

This implementation keeps both distinctive properties:

* :class:`ContainmentSimilarity` — IDF-weighted containment of od_i in
  od_j (not symmetric; the classifier fires when *either* direction
  exceeds the threshold, DELPHI's duplicate rule);
* :func:`hierarchical_prune` — children evidence: candidate pairs whose
  parent elements were not detected as duplicates are pruned when the
  hierarchy is processed outermost-first.
"""

from __future__ import annotations

from typing import Sequence

from ..core.index import CorpusIndex
from ..framework.classifier import DUPLICATES, NON_DUPLICATES
from ..framework.od import ObjectDescription
from ..strings.levenshtein import within_normalized


class ContainmentSimilarity:
    """IDF-weighted containment measure.

    containment(od_i in od_j) = idf(tuples of od_i matched in od_j) /
    idf(all tuples of od_i).  Matching is per comparison key with the
    same thresholded edit distance DogmatiX uses, so the comparison
    isolates the *measure* difference (containment vs. shared-vs-
    contradictory), not the matching machinery.
    """

    def __init__(self, index: CorpusIndex) -> None:
        self.index = index
        self.theta_tuple = index.theta_tuple

    def containment(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> float:
        """Weight fraction of od_i's information found in od_j."""
        total = 0.0
        contained = 0.0
        tuples_j: dict[str, list[str]] = {}
        for odt in od_j.tuples:
            tuples_j.setdefault(self.index.key_of(odt.name), []).append(odt.value)
        for odt in od_i.tuples:
            key = self.index.key_of(odt.name)
            weight = self.index.pair_idf(key, odt.value, key, odt.value)
            total += weight
            candidates = tuples_j.get(key, ())
            if any(
                within_normalized(odt.value, value, self.theta_tuple)
                for value in candidates
            ):
                contained += weight
        if total <= 0:
            return 0.0
        return contained / total

    def similarity(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> float:
        """Symmetrized for threshold classifiers: max of both directions
        (DELPHI's rule — one element contained in the other suffices)."""
        return max(self.containment(od_i, od_j), self.containment(od_j, od_i))

    def __call__(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        return self.similarity(od_i, od_j)


class DelphiClassifier:
    """Two-class containment classifier (Definition-6 shape)."""

    def __init__(self, measure: ContainmentSimilarity, threshold: float) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.measure = measure
        self.threshold = threshold

    def classify(self, od_i: ObjectDescription, od_j: ObjectDescription) -> str:
        return (
            DUPLICATES
            if self.measure.similarity(od_i, od_j) > self.threshold
            else NON_DUPLICATES
        )

    def score_and_classify(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> tuple[float, str]:
        score = self.measure.similarity(od_i, od_j)
        return score, (DUPLICATES if score > self.threshold else NON_DUPLICATES)


def hierarchical_prune(
    child_pairs: Sequence[tuple[int, int]],
    parent_of: dict[int, int],
    parent_duplicates: set[tuple[int, int]],
) -> list[tuple[int, int]]:
    """DELPHI's top-down pruning: keep child pairs whose parents are
    duplicates (or identical).

    ``parent_of`` maps child object ids to parent object ids;
    ``parent_duplicates`` holds unordered parent duplicate pairs.
    """
    canonical = {(min(a, b), max(a, b)) for a, b in parent_duplicates}
    kept: list[tuple[int, int]] = []
    for left, right in child_pairs:
        parent_left = parent_of.get(left)
        parent_right = parent_of.get(right)
        if parent_left is None or parent_right is None:
            continue
        if parent_left == parent_right:
            kept.append((left, right))
        elif (
            min(parent_left, parent_right),
            max(parent_left, parent_right),
        ) in canonical:
            kept.append((left, right))
    return kept
