"""engine: batched, optionally parallel execution of pipeline steps 4+5.

The architectural seam between *what* is compared (framework, core) and
*how* the comparisons run.  :class:`ExecutionPolicy` picks a backend and
its knobs, :class:`PairBatcher` turns any pair source into fixed-size
work units, :class:`ShardedPairSource` partitions pair *generation*
into deterministic shards, and :class:`ParallelClassifier` executes the
work — serially, across the worker pool of :mod:`repro.engine.pool`
(parent-enumerated batches), or sharded (worker-enumerated pairs) —
with results guaranteed identical to the serial order (see
``tests/test_engine_parallel.py`` and ``tests/test_shard_equivalence.py``).
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "PairBatcher": "batcher",
        "chunked": "batcher",
        "ClassifierFactory": "executor",
        "ConstantClassifierFactory": "executor",
        "ParallelClassifier": "executor",
        "bare_ods": "executor",
        "score_batch": "executor",
        "BACKENDS": "policy",
        "DEFAULT_BATCH_SIZE": "policy",
        "ExecutionPolicy": "policy",
        "SHARD_FACTOR": "policy",
        "SHARD_MODES": "policy",
        "AssembledShardFactory": "sharder",
        "ObjectDecider": "sharder",
        "ObjectDecision": "sharder",
        "PairShard": "sharder",
        "ShardRuntimeFactory": "sharder",
        "ShardablePairSource": "sharder",
        "ShardedPairSource": "sharder",
        "owned_filter_objects": "sharder",
        "stable_hash": "sharder",
    },
)
