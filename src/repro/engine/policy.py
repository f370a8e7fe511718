"""Execution policy: how steps 4+5 (pair generation and classification)
are executed.

The detection pipeline is algorithm-agnostic about *what* it compares;
the execution policy makes it agnostic about *how*: one knob object
selects the backend, the worker count, and the pair batch size that
every backend consumes.  Serial execution is simply the one-worker case
of the batched path, so every mode shares one code path and one result
format.

Backends differ in *where* work happens:

* ``serial`` and ``process`` enumerate candidate pairs in the parent
  (step 4) and only fan classification (step 5) out to workers;
* ``shard`` moves pair generation into the workers as well: each worker
  enumerates *and* classifies the pairs of its shards locally, so pair
  payloads never cross the process boundary (see
  :mod:`repro.engine.sharder`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Supported execution backends.
#:
#: * ``serial``  — classify batches in-process (zero dependencies);
#: * ``process`` — fan batches out across worker processes
#:   (pairs are enumerated in the parent and pickled to workers);
#: * ``shard``   — workers enumerate *and* classify their shards' pairs
#:   locally (worker-side pair generation; see ``engine.sharder``).
BACKENDS = ("serial", "process", "shard")

#: Sharding strategies of the ``shard`` backend.
#:
#: * ``block``  — blocking keys are hashed onto shards; each worker
#:   enumerates only the blocks of its shards (cheapest per worker,
#:   but a single giant block stays on one shard);
#: * ``object`` — ownership is hashed per pair; every worker enumerates
#:   the full block structure but classifies only its own pairs
#:   (balanced even under extreme block skew).
SHARD_MODES = ("block", "object")

DEFAULT_BATCH_SIZE = 256

#: Shards per worker under the ``shard`` backend: free workers pull the
#: next shard, balancing uneven blocks.  Results are invariant under the
#: shard count (deterministic ownership, canonical result order).
SHARD_FACTOR = 4


@dataclass(frozen=True)
class ExecutionPolicy:
    """How detection work is scheduled.

    Attributes
    ----------
    workers:
        Worker processes for the ``process`` and ``shard`` backends;
        must be >= 1.  More than one worker requires a parallel
        backend — a multi-worker serial policy would silently run
        single-process, so it is rejected (use :meth:`for_workers` to
        derive both fields from a count).
    batch_size:
        Pairs per batch handed to a worker (also the unit of the serial
        loop and of the worker-local shard loop); must be >= 1.
    backend:
        ``"serial"``, ``"process"``, or ``"shard"``.
    shard_by:
        Sharding strategy for the ``shard`` backend (``"block"`` or
        ``"object"``); ignored by the other backends.
    filter_in_workers:
        Evaluate the object filter f(OD_i) *inside* the workers
        (``shard`` backend only): candidate objects are partitioned
        across shards by stable hash, each worker scores f over its
        own objects via its local index, and the parent merges the
        decisions in candidate order — removing the last serial
        parent-side pass of step 4.  Off by default; results are
        bit-identical either way (same decisions, same
        ``pruned_object_ids`` order).  Requires ``backend="shard"``:
        the serial and process backends enumerate in the parent, where
        a "worker-side" filter has no meaning.
    ingest_workers:
        Worker processes for *corpus construction* (pipeline steps 1-3
        plus index building; see :mod:`repro.ingest`): sources are
        parsed and object descriptions generated across a pool, each
        worker building a partial corpus index the parent merges.
        Independent of ``backend`` — ingestion runs before any pair is
        generated, so a serial detection backend may still ingest in
        parallel and vice versa.  ``1`` (the default) builds in the
        parent; results are identical either way.
    """

    workers: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    backend: str = "serial"
    shard_by: str = "block"
    filter_in_workers: bool = False
    ingest_workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.shard_by not in SHARD_MODES:
            raise ValueError(
                f"shard_by must be one of {SHARD_MODES}, got {self.shard_by!r}"
            )
        if self.workers > 1 and self.backend == "serial":
            raise ValueError(
                f"workers={self.workers} with backend='serial' would run "
                "single-process anyway; use backend='process' or "
                "ExecutionPolicy.for_workers()"
            )
        if self.ingest_workers < 1:
            raise ValueError(
                f"ingest_workers must be >= 1, got {self.ingest_workers}"
            )
        if self.filter_in_workers and self.backend != "shard":
            raise ValueError(
                f"filter_in_workers requires backend='shard' (the other "
                f"backends run step 4 in the parent), got "
                f"backend={self.backend!r}"
            )

    @classmethod
    def for_workers(
        cls, workers: int, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> "ExecutionPolicy":
        """Policy for a worker count: process-parallel when > 1.

        ``workers=0`` means "all available cores".
        """
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(
            workers=workers,
            batch_size=batch_size,
            backend="process" if workers > 1 else "serial",
        )

    @classmethod
    def sharded(
        cls,
        workers: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        shard_by: str = "block",
        filter_in_workers: bool = False,
    ) -> "ExecutionPolicy":
        """Shard-backend policy for a worker count (0 = all cores)."""
        if workers == 0:
            workers = os.cpu_count() or 1
        return cls(
            workers=workers,
            batch_size=batch_size,
            backend="shard",
            shard_by=shard_by,
            filter_in_workers=filter_in_workers,
        )

    @property
    def parallel(self) -> bool:
        """True iff this policy fans work out across processes."""
        return self.backend in ("process", "shard") and self.workers > 1

    def shard_count(self) -> int:
        """Shards to partition pair generation into (shard backend).

        ``block`` mode oversubscribes (``SHARD_FACTOR`` shards per
        worker) so free workers balance uneven blocks.
        ``object`` mode gets exactly one shard per worker: its per-pair
        hash ownership is already uniform, and every object-mode shard
        walks the full block structure, so extra shards would only
        multiply that walk.
        """
        if self.shard_by == "object":
            return self.workers
        return self.workers * SHARD_FACTOR
