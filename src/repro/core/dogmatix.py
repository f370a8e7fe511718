"""The DogmatiX algorithm's worker-side runtimes (Section 3).

Inputs: one or more XML documents with their schemas
(:class:`~repro.core.source.Source`), a mapping *M* of element XPaths to
real-world types, and the real-world type to deduplicate.
:class:`repro.api.DetectionSession` then

1. selects the duplicate candidates Ω_T (all instances of the mapped
   schema elements, possibly across differently structured sources),
2. derives each source's description selection σ via the configured
   heuristic/condition (domain-independently, from the schema),
3. generates object descriptions,
4. reduces comparisons with shared-tuple blocking and the object
   filter f,
5. classifies pairs with the thresholded softIDF similarity measure,
6. clusters duplicates transitively,

and returns a :class:`~repro.framework.result.DetectionResult` whose
``to_xml()`` emits the Fig. 3 dupcluster document.  The two factories
here rebuild steps 4-5's state inside pool workers; only ``detect()``
loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..framework.classifier import ThresholdClassifier
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from .index import CorpusIndex
from .object_filter import ObjectFilter
from .similarity import DogmatixSimilarity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.sharder import ShardedPairSource


@dataclass(frozen=True)
class DogmatixClassifierFactory:
    """Rebuilds the DogmatiX classifier inside a worker process.

    The engine's process backend calls this once per worker (via the
    pool initializer) with the full OD instance, so every worker builds
    its own :class:`CorpusIndex` exactly once — the same deterministic
    construction the parent performs, hence bit-identical similarity
    scores (asserted by the serial-equivalence tests).
    """

    mapping: TypeMapping
    theta_tuple: float
    theta_cand: float
    possible_threshold: float | None
    semantics: str

    def __call__(self, ods: Sequence[ObjectDescription]) -> ThresholdClassifier:
        index = CorpusIndex(ods, self.mapping, self.theta_tuple)
        # Worker indexes are complete on construction — pinned like the
        # parent's.
        index.freeze()
        similarity = DogmatixSimilarity(index, semantics=self.semantics)
        return ThresholdClassifier(
            similarity,
            self.theta_cand,
            possible_threshold=self.possible_threshold,
        )


@dataclass(frozen=True)
class DogmatixShardFactory:
    """Shard runtime for DogmatiX: one worker-local index drives both
    blocking keys (step 4) and similarity (step 5).

    The engine's shard backend calls this once per worker with the full
    element-stripped OD instance.  The worker rebuilds the same
    deterministic :class:`CorpusIndex` the parent holds, derives the
    classifier from it, and derives the
    :class:`~repro.engine.sharder.ShardedPairSource` from the *same*
    index's ``block_keys`` — so worker-side pair enumeration sees
    exactly the similar-value groups the parent-side blocking would,
    and results stay bit-identical to serial.

    The object filter runs in one of two places.  With ``kept_ids``
    set, the parent already ran the per-object pass and only the
    quadratic enumeration is sharded.  With ``filter_theta`` set
    (``ExecutionPolicy.filter_in_workers``), the filter itself moves
    into the workers: the same worker index that drives blocking and
    similarity also answers f(OD_i)'s similar-value searches — each
    worker decides only the candidates its filter shards own, and the
    engine merges the decisions back into candidate order, so not even
    the filter's O(n) search pass stays serial in the parent.
    """

    mapping: TypeMapping
    theta_tuple: float
    theta_cand: float
    possible_threshold: float | None
    semantics: str
    shard_count: int
    shard_by: str = "block"
    use_blocking: bool = True
    kept_ids: frozenset[int] | None = None
    #: θ_cand of a worker-side filter pass; None = filter not ours to run.
    filter_theta: float | None = None

    def __post_init__(self) -> None:
        if self.filter_theta is not None and self.kept_ids is not None:
            raise ValueError(
                "filter_theta (worker-side filter) and kept_ids "
                "(parent-side filter outcome) are mutually exclusive"
            )

    @property
    def filters_objects(self) -> bool:
        """Engine contract: run the worker filter phase for this runtime."""
        return self.filter_theta is not None

    def __call__(
        self, ods: Sequence[ObjectDescription]
    ) -> tuple[ThresholdClassifier, ShardedPairSource]:
        index = CorpusIndex(ods, self.mapping, self.theta_tuple)
        # Complete on construction; pinned read-only (see
        # DogmatixClassifierFactory).
        index.freeze()
        similarity = DogmatixSimilarity(index, semantics=self.semantics)
        classifier = ThresholdClassifier(
            similarity,
            self.theta_cand,
            possible_threshold=self.possible_threshold,
        )
        object_filter = (
            ObjectFilter(index, self.filter_theta).decide
            if self.filter_theta is not None
            else None
        )
        # once per worker, and only under the shard backend
        from ..engine.sharder import ShardedPairSource

        source = ShardedPairSource(
            self.shard_count,
            block_index=index if self.use_blocking else None,
            shard_by=self.shard_by,
            kept_ids=self.kept_ids,
            object_filter=object_filter,
        )
        return classifier, source
