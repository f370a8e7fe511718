"""Batched pair classification across workers (pipeline steps 4+5).

The :class:`ParallelClassifier` executes the classification of candidate
pairs in fixed-size batches: :func:`chunked` cuts the pair source's
stream into lists of :data:`BATCH_SIZE` ``(left, right)`` id pairs in
the source's order, so concatenating per-batch results reproduces the
serial pair order exactly.  The worker count picks one of two backends,
and both share the scoring code path:

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
  batch order so both backends yield the identical pair sequence.

Either way the parent enumerates the pairs (step 4): the pair source
runs where its state — the parent's index, the object filter's
decisions — already lives.

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
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .._lazy import resolve
from ..framework.classifier import Classifier, DUPLICATES, POSSIBLE_DUPLICATES
from ..framework.od import ObjectDescription
from ..framework.pruning import PairSource
from ..framework.result import ScoredPair
from .policy import ExecutionPolicy

# What only a parallel run needs, resolved when one dispatches: a serial
# run loads neither the pool nor what the pool imports.
_POOL = "repro.engine.pool"

#: Pairs per batch: the unit of the serial loop and of one worker task.
#: Read in the parent at dispatch; results are invariant under it.
BATCH_SIZE = 256

#: ``factory(ods) -> classifier``; must be picklable for the process
#: backend (module-level callables and frozen dataclasses qualify).
ClassifierFactory = Callable[[Sequence[ObjectDescription]], Classifier]

T = TypeVar("T")


def chunked(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Split any iterable into lists of at most ``size`` items."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    batch: list[T] = []
    for item in items:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


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
    keep_possible:
        Materialize C2 ("possible duplicates") pairs in the result.
    """

    def __init__(
        self,
        classifier: Classifier,
        policy: ExecutionPolicy | None = None,
        classifier_factory: ClassifierFactory | None = None,
        keep_possible: bool = True,
    ) -> None:
        self.classifier = classifier
        self.policy = policy or ExecutionPolicy()
        self.classifier_factory = classifier_factory
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

        Returns ``(kept_pairs, compared_count)``; ``kept_pairs`` follows
        the source's pair order under both backends.
        """
        self.last_reason = None
        if self.policy.parallel:
            picklable = resolve(f"{_POOL}:picklable")
            try:
                factory = self.classifier_factory or ConstantClassifierFactory(
                    self.classifier
                )
                if picklable(factory):
                    return self._run_process(
                        ods, chunked(pair_source.pairs(ods), BATCH_SIZE), factory
                    )
                self.last_reason = "unpicklable classifier factory"
            except resolve(f"{_POOL}:PoolBroken") as failure:
                self.last_reason = str(failure)
        # A fresh stream: a broken pool may have drained part of the
        # first, and a source resets its state per enumeration.
        return self._run_serial(ods, chunked(pair_source.pairs(ods), BATCH_SIZE))

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
