"""Execution policy: how steps 4+5 (pair generation and classification)
are executed.

The detection pipeline is algorithm-agnostic about *what* it compares;
the execution policy makes it agnostic about *how*: one knob object
holds the worker count and the pair batch size every run consumes.
Serial execution is simply the one-worker case of the batched path, so
both modes share one code path and one result format.

The worker count alone decides the mode.  Either way the parent
enumerates the candidate pairs (step 4); with more than one worker the
``process`` backend fans their classification (step 5) out over the
worker pool (:mod:`repro.engine.pool`), otherwise the batches are
classified in-process (``serial``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class ExecutionPolicy:
    """How detection work is scheduled.

    Attributes
    ----------
    workers:
        Worker processes classifying pairs; must be >= 1.  ``1`` runs
        the serial backend, more runs the ``process`` backend.
    batch_size:
        Pairs per batch handed to a worker (also the unit of the serial
        loop); must be >= 1.
    ingest_workers:
        Worker processes for *corpus construction* (pipeline steps 1-3
        plus index building; see :mod:`repro.ingest`): object
        descriptions are generated across a pool, each worker building
        a partial corpus index the parent merges.  Documents are parsed
        in the parent before any of this.
        Independent of ``workers`` — ingestion runs before any pair is
        generated, so a serial detection may still ingest in parallel
        and vice versa.  ``1`` (the default) builds in the parent;
        results are identical either way.
    """

    workers: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    ingest_workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.ingest_workers < 1:
            raise ValueError(
                f"ingest_workers must be >= 1, got {self.ingest_workers}"
            )

    @classmethod
    def for_workers(
        cls, workers: int, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> "ExecutionPolicy":
        """Policy for a worker count; ``workers=0`` means all cores."""
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(workers=workers, batch_size=batch_size)

    @classmethod
    def sharded(
        cls,
        workers: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
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
        return cls.for_workers(workers, batch_size)

    @property
    def backend(self) -> str:
        """``"process"`` with more than one worker, else ``"serial"``."""
        return "process" if self.workers > 1 else "serial"

    @property
    def parallel(self) -> bool:
        """True iff this policy fans work out across processes."""
        return self.workers > 1
