"""The six-step duplicate detection pipeline (framework Section 2.3).

Steps:

1. candidate query formulation and execution,
2. description query formulation and execution,
3. OD generation,
4. comparison reduction,
5. pairwise comparisons and classification,
6. duplicate clustering.

The pipeline is algorithm-agnostic: candidate/description definitions,
the classifier, and the pair source are all pluggable, so the
baselines and user-defined methods share this code path.  A DogmatiX
session runs steps 4-6 as its own per-object loop
(:meth:`repro.api.session.DetectionSession.detect`), which finds the
pairs these pieces would.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..xmlkit.tree import Document, Element
from .candidates import CandidateDefinition
from .classifier import (
    Classifier,
    DUPLICATES,
    NON_DUPLICATES,
    POSSIBLE_DUPLICATES,
)
from .clustering import duplicate_clusters
from .description import DescriptionDefinition, generate_ods
from .od import ObjectDescription
from .pruning import NoPruning, PairSource
from .result import DetectionResult, ScoredPair


class DetectionPipeline:
    """Configurable object-identification pipeline.

    Parameters
    ----------
    candidate_definition:
        What to compare (step 1).
    description_definition:
        What describes a candidate (steps 2–3).
    classifier:
        δ, classifying OD pairs (step 5).
    pair_source:
        Comparison reduction (step 4); all-pairs when omitted.
    keep_possible:
        Materialize C2 pairs in the result (for expert review).
    """

    def __init__(
        self,
        candidate_definition: CandidateDefinition,
        description_definition: DescriptionDefinition,
        classifier: Classifier,
        pair_source: PairSource | None = None,
        keep_possible: bool = True,
    ) -> None:
        self.candidate_definition = candidate_definition
        self.description_definition = description_definition
        self.classifier = classifier
        self.pair_source = pair_source or NoPruning()
        self.keep_possible = keep_possible

    # ------------------------------------------------------------------
    def run(
        self, documents: Document | Element | Iterable[Document | Element]
    ) -> DetectionResult:
        """Execute steps 1–6 on one or more documents."""
        candidates = self.candidate_definition.select(documents)  # step 1
        ods = generate_ods(self.description_definition, candidates)  # steps 2+3
        return self.detect(ods)

    def detect(self, ods: Sequence[ObjectDescription]) -> DetectionResult:
        """Execute steps 4–6 on pre-built ODs, in this process.

        Step 5 is one loop over the pair source's stream: a classifier
        with ``score_and_classify`` scores each pair once, any other is
        asked for its label alone (score 1.0).  Non-duplicates are
        dropped as they are classified (the paper's step 5 note).

        Result pairs are ordered canonically by ``(left, right)`` id,
        so a detection result depends only on the *set* of surviving
        pairs — never on the enumeration order of the pair source.
        """
        by_id = {od.object_id: od for od in ods}
        scorer = getattr(self.classifier, "score_and_classify", None)
        kept = {DUPLICATES}
        if self.keep_possible:
            kept.add(POSSIBLE_DUPLICATES)
        pairs: list[ScoredPair] = []
        compared = 0
        for left, right in self.pair_source.pairs(ods):  # steps 4+5
            compared += 1
            od_i, od_j = by_id[left], by_id[right]
            if scorer is not None:  # one similarity evaluation per pair
                score, label = scorer(od_i, od_j)
            else:
                score, label = 1.0, self.classifier.classify(od_i, od_j)
            if label in kept:
                pairs.append(ScoredPair(left, right, score, label))
        pairs.sort(key=lambda pair: (pair.left, pair.right))
        duplicate_ids = [
            (pair.left, pair.right) for pair in pairs if pair.label == DUPLICATES
        ]
        clusters = duplicate_clusters(duplicate_ids, [od.object_id for od in ods])  # step 6
        # Any source may report filter-pruned objects (ObjectFilterPruning
        # fills this during enumeration).
        pruned = list(getattr(self.pair_source, "pruned_ids", ()))
        return DetectionResult(
            real_world_type=self.candidate_definition.real_world_type,
            ods=ods,
            pairs=pairs,
            clusters=clusters,
            pruned_object_ids=pruned,
            compared_pairs=compared,
        )

__all__ = [
    "DUPLICATES",
    "DetectionPipeline",
    "NON_DUPLICATES",
    "POSSIBLE_DUPLICATES",
]
