"""Steps 4-6 for a session: what :meth:`DetectionSession.detect` runs.

Apart from :mod:`repro.api.session` so that a process which opens a
session to serve lookups — a warm open, ``match --store`` — never loads
the pipeline, the engine behind it or the worker factory; the first
``detect()`` of a process imports this module.  Step 4 (blocking and the
object filter) runs here in the parent against the session's standing
index; the policy's worker count decides whether step 5 fans out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.dogmatix import DogmatixClassifierFactory
from ..core.object_filter import ObjectFilter
from ..framework.candidates import CandidateDefinition
from ..framework.classifier import ThresholdClassifier
from ..framework.description import DescriptionDefinition
from ..framework.pipeline import DetectionPipeline
from ..framework.pruning import ObjectFilterPruning, SharedTupleBlocking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.policy import ExecutionPolicy
    from ..framework.result import DetectionResult
    from .session import DetectionSession

# detect() receives ready-made ODs; the pipeline never executes this.
_DUMMY_DESCRIPTION = DescriptionDefinition((".",))


def detect(
    session: DetectionSession,
    theta: float,
    policy: Optional[ExecutionPolicy],
) -> tuple[DetectionResult, Optional[ObjectFilter]]:
    """One batch run at the checked threshold ``theta`` against the
    session's standing index, and the object filter it used (``None``
    when filtering is off)."""
    policy = policy or session.config.execution
    classifier = (
        session._classifier
        if theta == session.config.theta_cand
        else ThresholdClassifier(
            session._similarity,
            theta,
            possible_threshold=session.config.possible_threshold,
        )
    )
    pair_source = None
    object_filter = None
    if session.config.use_blocking:
        pair_source = SharedTupleBlocking(session._index.block_keys)
    if session.config.use_object_filter:
        object_filter = ObjectFilter(session._index, theta)
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
    result = pipeline.detect(session._ods)
    return result, object_filter
