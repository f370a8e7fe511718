"""Steps 4-6 for a session: what :meth:`DetectionSession.detect` runs.

Apart from :mod:`repro.api.session` so that a process which opens a
session to serve lookups — a warm open, ``match --store`` — never loads
the pipeline, the engine behind it or the worker factories; the first
``detect()`` of a process imports this module, and the sharder only
when the policy's backend is ``shard``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .._lazy import resolve
from ..core.dogmatix import DogmatixClassifierFactory, DogmatixShardFactory
from ..core.object_filter import ObjectFilter
from ..framework.candidates import CandidateDefinition
from ..framework.classifier import ThresholdClassifier
from ..framework.description import DescriptionDefinition
from ..framework.pipeline import DetectionPipeline
from ..framework.pruning import ObjectFilterPruning, SharedTupleBlocking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.policy import ExecutionPolicy
    from ..engine.sharder import ShardedPairSource
    from ..framework.result import DetectionResult
    from .session import DetectionSession

# detect() receives ready-made ODs; the pipeline never executes this.
_DUMMY_DESCRIPTION = DescriptionDefinition((".",))


def detect(
    session: DetectionSession,
    theta_cand: Optional[float],
    policy: Optional[ExecutionPolicy],
) -> tuple[DetectionResult, Optional[ObjectFilter]]:
    """One batch run against the session's standing index, and the
    object filter it used (``None`` when filtering is off)."""
    theta = session.config.theta_cand if theta_cand is None else theta_cand
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
    shard_factory = None
    if policy.backend == "shard":
        pair_source, object_filter, shard_factory = _sharded_step4(
            session, theta, policy
        )
    else:
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
        shard_factory=shard_factory,
    )
    result = pipeline.detect(session._ods)
    if object_filter is not None and pair_source is not None:
        # Worker-side filter evaluation: the engine merged the
        # per-shard decisions (candidate order) onto the pair
        # source; adopt them so this run's ObjectFilter exposes the
        # same decisions/pruned_count as a parent-side pass.
        decisions = getattr(pair_source, "filter_decisions", ())
        if decisions:
            object_filter.adopt(decisions)
    return result, object_filter


def _sharded_step4(
    session: DetectionSession, theta: float, policy: ExecutionPolicy
) -> tuple[ShardedPairSource, Optional[ObjectFilter], DogmatixShardFactory]:
    """Step-4 setup for the ``shard`` backend.

    Two placements for the object filter, selected by
    ``policy.filter_in_workers``:

    * **parent-side** (default): the per-object pass runs here, in
      candidate order — exactly like the lazy serial
      ``ObjectFilterPruning`` evaluation — and the surviving ids
      ship to the workers, which only enumerate;
    * **worker-side**: nothing filter-related runs here.  The
      :class:`DogmatixShardFactory` carries ``filter_theta``, the
      engine runs a filter phase across the pool (each worker
      decides its own filter shards), merges the decisions back
      into candidate order, and installs them on the parent-side
      pair source; :func:`detect` then adopts them into this run's
      :class:`ObjectFilter` so introspection is placement-agnostic.
      The parent-side source also holds ``object_filter.decide``
      for the no-pool fallback (``workers=1`` — the same pass,
      evaluated lazily in the parent).

    Either way the quadratic pair enumeration ships to the workers
    and results stay bit-identical.
    """
    object_filter = None
    kept_ids: Optional[frozenset[int]] = None
    pruned: list[int] = []
    decider = None
    worker_filter = False
    if session.config.use_object_filter:
        object_filter = ObjectFilter(session._index, theta)
        if policy.filter_in_workers:
            worker_filter = True
            decider = object_filter.decide
        else:
            kept: list[int] = []
            for od in session._ods:
                (kept if object_filter.keep(od) else pruned).append(
                    od.object_id
                )
            kept_ids = frozenset(kept)
    shard_count = policy.shard_count()
    pair_source = resolve("repro.engine.sharder:ShardedPairSource")(
        shard_count,
        block_index=session._index if session.config.use_blocking else None,
        shard_by=policy.shard_by,
        kept_ids=kept_ids,
        pruned_ids=pruned,
        object_filter=decider,
    )
    shard_factory = DogmatixShardFactory(
        mapping=session.mapping,
        theta_tuple=session.config.theta_tuple,
        theta_cand=theta,
        possible_threshold=session.config.possible_threshold,
        semantics=session.config.similar_semantics,
        shard_count=shard_count,
        shard_by=policy.shard_by,
        use_blocking=session.config.use_blocking,
        kept_ids=kept_ids,
        filter_theta=theta if worker_filter else None,
    )
    return pair_source, object_filter, shard_factory
