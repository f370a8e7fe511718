"""The batch path a session's ``detect()`` used to run: the oracle for it.

Steps 4-6 through the generic framework: a fresh
:class:`~repro.core.object_filter.ObjectFilter` wrapped in
:class:`~repro.framework.pruning.ObjectFilterPruning` over
:class:`~repro.framework.pruning.SharedTupleBlocking` (all pairs without
blocking), run by :class:`~repro.framework.pipeline.DetectionPipeline`.
:func:`detect` is that path as it stood, against a session's standing
index, ODs and config; it returns the result and the object filter it
used (``None`` when filtering is off).
"""

from __future__ import annotations

from typing import Optional

from repro.core.object_filter import ObjectFilter
from repro.framework.candidates import CandidateDefinition
from repro.framework.classifier import ThresholdClassifier
from repro.framework.description import DescriptionDefinition
from repro.framework.pipeline import DetectionPipeline
from repro.framework.pruning import ObjectFilterPruning, SharedTupleBlocking

# detect() receives ready-made ODs; the pipeline never executes this.
_DUMMY_DESCRIPTION = DescriptionDefinition((".",))


def detect(session, theta: Optional[float] = None):
    """One batch run at ``theta`` (the session's threshold by default)
    against the session's standing index, and the object filter it used
    (``None`` when filtering is off)."""
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
    )
    result = pipeline.detect(session.ods)
    return result, object_filter
