"""Duplicate classification (framework step 5 machinery).

The framework classifies pairs of ODs into classes Γ = {C0, C1, ...}
with C0 reserved for non-duplicates (Section 2.2).  Classifiers are
pluggable; provided here:

* :class:`ThresholdClassifier` — Definition 6: duplicates iff
  ``sim(o_i, o_j) > θ_cand`` (optionally with a "possible duplicates"
  band, the paper's three-class variant);
* :class:`MatchingTuplesClassifier` — the worked Example 3: duplicates
  iff at least half of each OD's tuples match the other OD.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..xmlkit.tree import strip_positions
from .od import ObjectDescription

#: Class labels (Γ).  C0 is fixed by the framework as "non-duplicates".
NON_DUPLICATES = "C0"
DUPLICATES = "C1"
POSSIBLE_DUPLICATES = "C2"

SimilarityFunction = Callable[[ObjectDescription, ObjectDescription], float]


class Classifier(Protocol):
    """δ: classifies a pair of object descriptions into a class label."""

    def classify(self, od_i: ObjectDescription, od_j: ObjectDescription) -> str:
        """Return one of the class labels of Γ."""
        ...  # pragma: no cover - protocol


class ThresholdClassifier:
    """Definition 6: thresholded similarity classification.

    With ``possible_threshold`` set (strictly below ``threshold``),
    pairs scoring in between are classified C2 ("possible duplicates",
    for expert review); otherwise the classifier is two-class.
    """

    def __init__(
        self,
        similarity: SimilarityFunction,
        threshold: float,
        possible_threshold: float | None = None,
    ) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if possible_threshold is not None and not (
            0 <= possible_threshold < threshold
        ):
            raise ValueError(
                "possible_threshold must satisfy 0 <= possible < threshold"
            )
        self.similarity = similarity
        self.threshold = threshold
        self.possible_threshold = possible_threshold

    def classify(self, od_i: ObjectDescription, od_j: ObjectDescription) -> str:
        return self.score_and_classify(od_i, od_j)[1]

    def score_and_classify(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> tuple[float, str]:
        """Similarity and class label in one evaluation."""
        score = self.similarity(od_i, od_j)
        if score > self.threshold:
            return score, DUPLICATES
        if self.possible_threshold is not None and score > self.possible_threshold:
            return score, POSSIBLE_DUPLICATES
        return score, NON_DUPLICATES


class MatchingTuplesClassifier:
    """Example 3 of the paper: mutual half-overlap of OD tuples.

    A pair is C1 when at least ``fraction`` of OD_i's tuples match
    tuples of OD_j *and* vice versa.  Tuples match when their values are
    equal and their names denote the same generic path (the paper's
    Table 2 uses generic names like ``actor/name``; our OD generation
    emits positional XPaths, which are genericized here).
    """

    def __init__(self, fraction: float = 0.5) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    @staticmethod
    def _generic(od: ObjectDescription) -> set[tuple[str, str]]:
        return {(odt.value, strip_positions(odt.name)) for odt in od.tuples}

    def classify(self, od_i: ObjectDescription, od_j: ObjectDescription) -> str:
        if not od_i.tuples or not od_j.tuples:
            return NON_DUPLICATES
        set_i = self._generic(od_i)
        set_j = self._generic(od_j)
        shared = set_i & set_j
        if (
            len(shared) >= self.fraction * len(set_i)
            and len(shared) >= self.fraction * len(set_j)
        ):
            return DUPLICATES
        return NON_DUPLICATES
