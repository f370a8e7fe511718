"""Execution policy: how steps 4+5 (pair generation and classification)
are executed.

The detection pipeline is algorithm-agnostic about *what* it compares;
the execution policy makes it agnostic about *how*: one knob, the
worker count, which every run consumes.  Serial execution is simply the
one-worker case of the batched path, so both modes share one code path
and one result format.

The worker count alone decides the mode.  Either way the parent
enumerates the candidate pairs (step 4); with more than one worker the
``process`` backend fans their classification (step 5) out over the
worker pool (:mod:`repro.engine.pool`), otherwise the batches are
classified in-process (``serial``).  Pairs are cut into batches of
:data:`repro.engine.executor.BATCH_SIZE`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecutionPolicy:
    """How detection work is scheduled.

    Attributes
    ----------
    workers:
        Worker processes classifying pairs; must be >= 1.  ``1`` runs
        the serial backend, more runs the ``process`` backend.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def for_workers(cls, workers: int) -> "ExecutionPolicy":
        """Policy for a worker count; ``workers=0`` means all cores."""
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(workers=workers)

    @classmethod
    def sharded(
        cls,
        workers: int,
        shard_by: str = "block",
        filter_in_workers: bool = False,
    ) -> "ExecutionPolicy":
        """:meth:`for_workers` under the removed shard backend's name.

        Kept for callers that still name it; ``shard_by`` and
        ``filter_in_workers`` are checked and dropped — the shard
        backend answered bit-identically to ``process``.
        """
        if shard_by not in ("block", "object"):
            raise ValueError(
                f"shard_by must be 'block' or 'object', got {shard_by!r}"
            )
        if not isinstance(filter_in_workers, bool):
            raise ValueError(
                f"filter_in_workers must be a bool, got {filter_in_workers!r}"
            )
        return cls.for_workers(workers)

    @property
    def backend(self) -> str:
        """``"process"`` with more than one worker, else ``"serial"``."""
        return "process" if self.workers > 1 else "serial"

    @property
    def parallel(self) -> bool:
        """True iff this policy fans work out across processes."""
        return self.workers > 1
