"""Execution policy: a worker count, kept as a name.

Nothing that detects duplicates reads it any more: a
:class:`~repro.api.session.DetectionSession`'s ``detect()`` and a
:class:`~repro.framework.pipeline.DetectionPipeline`'s are each one
loop in the calling process.  :class:`ExecutionPolicy` stays for the
callers that still build one:
:meth:`repro.api.spec.RunSpec.execution_policy` validates a spec's
``workers`` / ``backend`` fields through it, the benchmark's probes name
it, and ``detect(policy=)`` accepts and ignores one.  Its ``backend`` is
derived from the worker count alone.
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
        Worker processes; must be >= 1.  ``1`` names the ``serial``
        backend, more the ``process`` backend.
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
