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

# framework <-> engine import contract: engine modules import framework
# *submodules* (classifier, od, pruning, result), never this one, so the
# executor is a plain module-level import — whoever loads the pipeline
# is about to run it.
from ..engine.executor import ClassifierFactory, ParallelClassifier
from ..engine.policy import ExecutionPolicy
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
from .result import DetectionResult


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
    policy:
        How step 5 executes (serial / process-parallel batching); the
        serial single-worker default reproduces the classic loop.
        Note: under the process backend, workers classify
        element-stripped ODs (``od.element is None``); classifiers
        that consult ``od.element`` must use the serial backend.
    classifier_factory:
        Picklable ``factory(ods) -> classifier`` for rebuilding the
        classifier inside worker processes; without one the live
        classifier itself is shipped (or execution falls back to
        serial when it cannot be pickled).
    """

    def __init__(
        self,
        candidate_definition: CandidateDefinition,
        description_definition: DescriptionDefinition,
        classifier: Classifier,
        pair_source: PairSource | None = None,
        keep_possible: bool = True,
        policy: ExecutionPolicy | None = None,
        classifier_factory: ClassifierFactory | None = None,
    ) -> None:
        self.candidate_definition = candidate_definition
        self.description_definition = description_definition
        self.classifier = classifier
        self.pair_source = pair_source or NoPruning()
        self.keep_possible = keep_possible
        self.policy = policy or ExecutionPolicy()
        self.classifier_factory = classifier_factory

    # ------------------------------------------------------------------
    def run(
        self, documents: Document | Element | Iterable[Document | Element]
    ) -> DetectionResult:
        """Execute steps 1–6 on one or more documents."""
        candidates = self.candidate_definition.select(documents)  # step 1
        ods = generate_ods(self.description_definition, candidates)  # steps 2+3
        return self.detect(ods)

    def detect(self, ods: Sequence[ObjectDescription]) -> DetectionResult:
        """Execute steps 4–6 on pre-built ODs.

        Steps 4+5 run through the execution engine: pair generation
        happens in this process and only classification fans out.

        Result pairs are ordered canonically by ``(left, right)`` id,
        so a detection result depends only on the *set* of surviving
        pairs — never on the enumeration order of the pair source.
        """
        engine = ParallelClassifier(
            self.classifier,
            policy=self.policy,
            classifier_factory=self.classifier_factory,
            keep_possible=self.keep_possible,
        )
        pairs, compared = engine.run(ods, self.pair_source)  # steps 4+5
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
