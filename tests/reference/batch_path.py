"""The batch path a session's ``detect()`` used to run: the oracle for it.

Steps 4-6 through the generic framework: a fresh
:class:`~repro.core.object_filter.ObjectFilter` wrapped in
:class:`~repro.framework.pruning.ObjectFilterPruning` over
:class:`~repro.framework.pruning.SharedTupleBlocking` (all pairs without
blocking), run by :class:`~repro.framework.pipeline.DetectionPipeline`
on :class:`~repro.engine.executor.ParallelClassifier`, with
:class:`DogmatixClassifierFactory` rebuilding the classifier in pool
workers.  :func:`detect` is that path as it stood, against a session's
standing index, ODs and config; it returns the result and the object
filter it used (``None`` when filtering is off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.index import CorpusIndex
from repro.core.object_filter import ObjectFilter
from repro.core.similarity import DogmatixSimilarity
from repro.engine.policy import ExecutionPolicy
from repro.framework.candidates import CandidateDefinition
from repro.framework.classifier import ThresholdClassifier
from repro.framework.description import DescriptionDefinition
from repro.framework.mapping import TypeMapping
from repro.framework.od import ObjectDescription
from repro.framework.pipeline import DetectionPipeline
from repro.framework.pruning import ObjectFilterPruning, SharedTupleBlocking

# detect() receives ready-made ODs; the pipeline never executes this.
_DUMMY_DESCRIPTION = DescriptionDefinition((".",))


@dataclass(frozen=True)
class DogmatixClassifierFactory:
    """Rebuilds the DogmatiX classifier inside a worker process.

    The engine's process backend calls this once per worker (via the
    pool initializer) with the full OD instance, so every worker builds
    its own :class:`CorpusIndex` exactly once — the same deterministic
    construction the parent performs, hence bit-identical similarity
    scores.
    """

    mapping: TypeMapping
    theta_tuple: float
    theta_cand: float
    possible_threshold: float | None
    semantics: str

    def __call__(self, ods: Sequence[ObjectDescription]) -> ThresholdClassifier:
        index = CorpusIndex(ods, self.mapping, self.theta_tuple)
        index.freeze()
        similarity = DogmatixSimilarity(index, semantics=self.semantics)
        return ThresholdClassifier(
            similarity,
            self.theta_cand,
            possible_threshold=self.possible_threshold,
        )


def detect(session, theta: Optional[float] = None, policy=None):
    """One batch run at ``theta`` (the session's threshold by default)
    against the session's standing index, and the object filter it used
    (``None`` when filtering is off)."""
    policy = policy or ExecutionPolicy()
    theta = session.config.theta_cand if theta is None else theta
    classifier = ThresholdClassifier(
        session.similarity,
        theta,
        possible_threshold=session.config.possible_threshold,
    )
    pair_source = None
    object_filter = None
    if session.config.use_blocking:
        pair_source = SharedTupleBlocking(session.index.block_keys)
    if session.config.use_object_filter:
        object_filter = ObjectFilter(session.index, theta)
        pair_source = ObjectFilterPruning(
            object_filter.keep, inner=pair_source
        )

    pipeline = DetectionPipeline(
        candidate_definition=CandidateDefinition(
            session.real_world_type,
            tuple(sorted(session.mapping.xpaths_of(session.real_world_type))),
        ),
        description_definition=_DUMMY_DESCRIPTION,
        classifier=classifier,
        pair_source=pair_source,
        policy=policy,
        classifier_factory=DogmatixClassifierFactory(
            mapping=session.mapping,
            theta_tuple=session.config.theta_tuple,
            theta_cand=theta,
            possible_threshold=session.config.possible_threshold,
            semantics=session.config.similar_semantics,
        ),
    )
    result = pipeline.detect(session.ods)
    return result, object_filter
