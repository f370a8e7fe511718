"""Batched pair classification across workers (pipeline steps 4+5).

The :class:`ParallelClassifier` executes the classification of candidate
pairs over the batches a :class:`~repro.engine.batcher.PairBatcher`
produces.  Three backends share the scoring code path:

* **serial** — batches are classified in-process; this is the
  zero-dependency fallback and, by construction, the ``workers=1`` case
  of the batched path;
* **process** — batches fan out over the worker pool
  (:mod:`repro.engine.pool`).  A worker initializer receives the full
  (element-stripped) OD instance once and builds the classifier there
  — for DogmatiX that means one
  :class:`~repro.core.index.CorpusIndex` per worker, not per pair.
  Batch payloads are plain id pairs; results are the kept
  :class:`~repro.framework.result.ScoredPair` lists, concatenated in
  batch order so every backend yields the identical pair sequence;
* **shard** — pair *generation* moves into the workers too: the pool
  payload is shard ids, and each worker enumerates and classifies its
  shards' pairs locally via a
  :class:`~repro.engine.sharder.ShardRuntimeFactory` (for DogmatiX one
  index per worker drives both blocking keys and similarity), so pair
  batches never cross the process boundary.  Kept pairs come back in
  shard order, which generally differs from the serial enumeration
  order — the pipeline orders result pairs canonically, so results
  stay bit-identical across backends (``tests/test_shard_equivalence``).
  When the shard runtime evaluates the object filter too
  (``ExecutionPolicy.filter_in_workers``), a filter phase runs on the
  same pool first: each worker decides its share of the candidates and
  the parent merges the decisions back into candidate order before any
  pair is enumerated.

Classifier construction inside workers goes through a *classifier
factory*: a picklable callable ``factory(ods) -> classifier``.  When no
factory is given the live classifier itself is shipped (fine for
stateless classifiers).  If that is not picklable, or a worker dies or
the factory raises inside one, the run falls back to the serial backend
with the same result, and :attr:`ParallelClassifier.last_reason` says
why.

**Process-backend contract:** worker-side classifiers see
element-stripped ODs — ``object_id`` and the OD tuples only, with
``od.element`` always ``None`` (see :func:`bare_ods`).  Every
classifier in this repository (DogmatiX, the baselines) scores from
tuples alone, but a custom classifier that consults ``od.element``
must stay on the serial backend, or it will diverge from serial
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .._lazy import resolve
from ..framework.classifier import Classifier, DUPLICATES, POSSIBLE_DUPLICATES
from ..framework.od import ObjectDescription
from ..framework.pruning import PairSource
from ..framework.result import ScoredPair
from .batcher import PairBatcher, chunked
from .policy import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sharder import ObjectDecision, ShardRuntimeFactory

# What only a parallel run needs, resolved when one dispatches: a serial
# run loads neither the sharder nor the pool (nor what the pool imports).
_SHARDER = "repro.engine.sharder"
_POOL = "repro.engine.pool"

#: ``factory(ods) -> classifier``; must be picklable for the process
#: backend (module-level callables and frozen dataclasses qualify).
ClassifierFactory = Callable[[Sequence[ObjectDescription]], Classifier]


def score_batch(
    batch: Iterable[tuple[int, int]],
    by_id: dict[int, ObjectDescription],
    classifier: Classifier,
    keep_possible: bool,
) -> list[ScoredPair]:
    """Classify one batch; return only the pairs worth materializing.

    Non-duplicate pairs are dropped here (the paper's Step 5 note), so
    worker -> parent result payloads stay proportional to duplicates,
    not to comparisons.
    """
    scorer = getattr(classifier, "score_and_classify", None)
    kept: list[ScoredPair] = []
    for left, right in batch:
        if scorer is not None:  # one similarity evaluation per pair
            score, label = scorer(by_id[left], by_id[right])
        else:
            score, label = 1.0, classifier.classify(by_id[left], by_id[right])
        if label == DUPLICATES or (label == POSSIBLE_DUPLICATES and keep_possible):
            kept.append(ScoredPair(left, right, score, label))
    return kept


@dataclass(frozen=True)
class ConstantClassifierFactory:
    """Factory that ships a ready-made classifier to the workers."""

    classifier: Classifier

    def __call__(self, ods: Sequence[ObjectDescription]) -> Classifier:
        return self.classifier


def bare_ods(ods: Sequence[ObjectDescription]) -> list[ObjectDescription]:
    """Element-stripped copies for worker transmission.

    Classification needs only ``object_id`` and the OD tuples; XML
    elements (used for result XPaths in the parent) would bloat — and
    for deep trees endanger — the pickle payload.
    """
    return [ObjectDescription(od.object_id, od.tuples, None) for od in ods]


# ----------------------------------------------------------------------
# Worker-process state (one classifier per worker, built once)
# ----------------------------------------------------------------------
_WORKER_STATE: dict[str, object] = {}


def _init_worker(
    factory: ClassifierFactory,
    ods: Sequence[ObjectDescription],
    keep_possible: bool,
) -> None:
    _WORKER_STATE["by_id"] = {od.object_id: od for od in ods}
    _WORKER_STATE["classifier"] = factory(ods)
    _WORKER_STATE["keep_possible"] = keep_possible


def _score_batch_in_worker(batch: list[tuple[int, int]]) -> list[ScoredPair]:
    return score_batch(
        batch,
        _WORKER_STATE["by_id"],  # type: ignore[arg-type]
        _WORKER_STATE["classifier"],  # type: ignore[arg-type]
        bool(_WORKER_STATE["keep_possible"]),
    )


def _init_shard_worker(
    factory: ShardRuntimeFactory,
    ods: Sequence[ObjectDescription],
    keep_possible: bool,
    batch_size: int,
) -> None:
    classifier, source = factory(ods)
    _WORKER_STATE["ods"] = ods
    _WORKER_STATE["by_id"] = {od.object_id: od for od in ods}
    _WORKER_STATE["classifier"] = classifier
    _WORKER_STATE["source"] = source
    _WORKER_STATE["keep_possible"] = keep_possible
    _WORKER_STATE["batch_size"] = batch_size


def _filter_shard_in_worker(shard_id: int) -> list[ObjectDecision]:
    """Decide f(OD_i) for the objects one filter shard owns.

    The worker's own index answers the similar-value searches, so each
    shard pays ~1/shard_count of the filter pass the parent used to run
    serially — and warms the worker's similar-value caches for the pair
    enumeration that follows.
    """
    source = _WORKER_STATE["source"]
    decider = source.object_filter  # type: ignore[union-attr]
    ods = _WORKER_STATE["ods"]
    owned_filter_objects = resolve(f"{_SHARDER}:owned_filter_objects")
    owned = owned_filter_objects(ods, shard_id, source.shard_count)  # type: ignore[arg-type,union-attr]
    return [decider(od) for od in owned]


def _score_shard_in_worker(
    task: tuple[int, frozenset[int] | None],
) -> tuple[list[ScoredPair], int]:
    """Enumerate and classify one shard entirely inside the worker.

    ``task`` carries the shard id plus, for worker-filtered runs, the
    merged **pruned** ids of the filter phase (``None`` when the filter
    already ran — or is disabled — in the parent).  The pruned set is
    the compact complement of the kept set (most objects survive the
    filter), so it is what crosses the process boundary; the worker
    derives the kept ids from its own OD instance and installs them —
    once, on its first pair-shard task: the pool lives for one run and
    every task of a run carries the identical pruned set, so an
    already-installed source keeps the source from lazily re-running
    its own full filter pass on later tasks for free.
    """
    shard_id, pruned_ids = task
    source = _WORKER_STATE["source"]
    if pruned_ids is not None and source.kept_ids is None:  # type: ignore[union-attr]
        source.kept_ids = frozenset(  # type: ignore[union-attr]
            od.object_id
            for od in _WORKER_STATE["ods"]  # type: ignore[union-attr]
            if od.object_id not in pruned_ids
        )
    ods = _WORKER_STATE["ods"]
    by_id = _WORKER_STATE["by_id"]
    classifier = _WORKER_STATE["classifier"]
    keep_possible = bool(_WORKER_STATE["keep_possible"])
    kept: list[ScoredPair] = []
    compared = 0
    pair_stream = source.shard_pairs(ods, shard_id)  # type: ignore[union-attr]
    for batch in chunked(pair_stream, int(_WORKER_STATE["batch_size"])):  # type: ignore[arg-type]
        compared += len(batch)
        kept.extend(score_batch(batch, by_id, classifier, keep_possible))  # type: ignore[arg-type]
    return kept, compared


class ParallelClassifier:
    """Executes step 5 over pair batches, serially or across processes.

    Parameters
    ----------
    classifier:
        The live classifier (always used by the serial backend).
    policy:
        Execution policy; serial single-worker when omitted.
    classifier_factory:
        Picklable ``factory(ods) -> classifier`` rebuilding the
        classifier inside each worker.  Defaults to shipping
        ``classifier`` itself.
    shard_factory:
        Picklable :class:`~repro.engine.sharder.ShardRuntimeFactory`
        building classifier *and* shardable pair source inside each
        worker; required for worker-side pair generation under the
        ``shard`` backend.  Without one, a picklable
        :class:`~repro.engine.sharder.ShardablePairSource` passed to
        :meth:`run` is shipped by value; failing that the shard backend
        degrades to parent-side enumeration (process, then serial).
    keep_possible:
        Materialize C2 ("possible duplicates") pairs in the result.
    """

    def __init__(
        self,
        classifier: Classifier,
        policy: ExecutionPolicy | None = None,
        classifier_factory: ClassifierFactory | None = None,
        keep_possible: bool = True,
        shard_factory: ShardRuntimeFactory | None = None,
    ) -> None:
        self.classifier = classifier
        self.policy = policy or ExecutionPolicy()
        self.classifier_factory = classifier_factory
        self.shard_factory = shard_factory
        self.keep_possible = keep_possible
        #: Backend that actually ran the last :meth:`run` call.
        self.last_backend: str | None = None
        #: Why that run fell back to the serial backend, if it did.
        self.last_reason: str | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        ods: Sequence[ObjectDescription],
        pair_source: PairSource,
    ) -> tuple[list[ScoredPair], int]:
        """Classify every pair the source yields.

        Returns ``(kept_pairs, compared_count)``.  Under the serial and
        process backends ``kept_pairs`` follows the source's pair
        order; under the shard backend it follows shard order (the
        pipeline canonicalizes result order, so downstream results are
        identical either way).
        """
        self.last_reason = None
        batcher = PairBatcher(self.policy.batch_size)
        if self.policy.parallel:
            picklable = resolve(f"{_POOL}:picklable")
            try:
                if self.policy.backend == "shard":
                    shard_factory = self._resolve_shard_factory(pair_source)
                    if shard_factory is not None and picklable(shard_factory):
                        return self._run_shard(ods, shard_factory, pair_source)
                factory = self.classifier_factory or ConstantClassifierFactory(
                    self.classifier
                )
                if picklable(factory):
                    return self._run_process(
                        ods, batcher.batches(pair_source, ods), factory
                    )
                self.last_reason = "unpicklable classifier factory"
            except resolve(f"{_POOL}:PoolBroken") as failure:
                self.last_reason = str(failure)
        return self._run_serial(ods, batcher.batches(pair_source, ods))

    def _resolve_shard_factory(
        self, pair_source: PairSource
    ) -> ShardRuntimeFactory | None:
        if self.shard_factory is not None:
            return self.shard_factory
        if (
            hasattr(pair_source, "shard_pairs")
            and getattr(pair_source, "shard_count", 0) >= 1
        ):
            classifier_factory = self.classifier_factory or (
                ConstantClassifierFactory(self.classifier)
            )
            assemble = resolve(f"{_SHARDER}:AssembledShardFactory")
            return assemble(classifier_factory, pair_source)  # type: ignore[arg-type]
        return None

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        ods: Sequence[ObjectDescription],
        batches: Iterable[list[tuple[int, int]]],
    ) -> tuple[list[ScoredPair], int]:
        self.last_backend = "serial"
        by_id = {od.object_id: od for od in ods}
        pairs: list[ScoredPair] = []
        compared = 0
        for batch in batches:
            compared += len(batch)
            pairs.extend(
                score_batch(batch, by_id, self.classifier, self.keep_possible)
            )
        return pairs, compared

    def _run_process(
        self,
        ods: Sequence[ObjectDescription],
        batches: Iterable[list[tuple[int, int]]],
        factory: ClassifierFactory,
    ) -> tuple[list[ScoredPair], int]:
        self.last_backend = "process"
        payload = bare_ods(ods)
        pairs: list[ScoredPair] = []
        batch_sizes: list[int] = []

        def counted() -> Iterable[list[tuple[int, int]]]:
            for batch in batches:
                batch_sizes.append(len(batch))
                yield batch

        open_pool = resolve(f"{_POOL}:open_pool")
        with open_pool(
            self.policy.workers,
            initializer=_init_worker,
            initargs=(factory, payload, self.keep_possible),
        ) as pool:
            # map streams batches as workers free up, a bounded window
            # ahead of them, while preserving batch order in the results.
            for scored in pool.map(_score_batch_in_worker, counted()):
                pairs.extend(scored)
        return pairs, sum(batch_sizes)

    def _run_shard(
        self,
        ods: Sequence[ObjectDescription],
        factory: ShardRuntimeFactory,
        pair_source: PairSource,
    ) -> tuple[list[ScoredPair], int]:
        """Worker-side pair generation: ship shard ids, not pair batches.

        When the factory evaluates the object filter in the workers
        (``filters_objects``), a filter phase precedes enumeration:
        each worker decides the objects of its filter shards, the
        parent merges the decisions back into **candidate order** (the
        order the serial parent-side pass would have produced), and
        the merged pruned ids — the compact complement of the kept set
        — ride along with every pair-shard task.
        The merged decisions are also installed on the parent-side
        ``pair_source`` so the pipeline reports the same
        ``pruned_object_ids`` as every other backend — once the pool has
        finished: a pool that breaks installs nothing, and the serial
        fallback decides each object afresh.
        """
        self.last_backend = "shard"
        payload = bare_ods(ods)
        pairs: list[ScoredPair] = []
        compared = 0
        merged: list[ObjectDecision] | None = None
        open_pool = resolve(f"{_POOL}:open_pool")
        with open_pool(
            self.policy.workers,
            initializer=_init_shard_worker,
            initargs=(factory, payload, self.keep_possible, self.policy.batch_size),
        ) as pool:
            pruned_ids: frozenset[int] | None = None
            if getattr(factory, "filters_objects", False):
                decisions_by_id: dict[int, ObjectDecision] = {}
                for shard_decisions in pool.map(
                    _filter_shard_in_worker, range(factory.shard_count)
                ):
                    for decision in shard_decisions:
                        decisions_by_id[decision.object_id] = decision
                merged = [decisions_by_id[od.object_id] for od in ods]
                pruned_ids = frozenset(
                    decision.object_id
                    for decision in merged
                    if not decision.kept
                )
            # map over shard ids: workers pull shards as they free up
            # (more shards than workers -> dynamic balancing of uneven
            # blocks) while results arrive in deterministic shard order.
            for kept, shard_compared in pool.map(
                _score_shard_in_worker,
                (
                    (shard_id, pruned_ids)
                    for shard_id in range(factory.shard_count)
                ),
            ):
                pairs.extend(kept)
                compared += shard_compared
        adopt = getattr(pair_source, "adopt_filter_decisions", None)
        if merged is not None and adopt is not None:
            adopt(merged)
        return pairs, compared
