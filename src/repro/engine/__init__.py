"""engine: batched, optionally parallel execution of pipeline steps 4+5.

The architectural seam between *what* is compared (framework, core) and
*how* the comparisons run.  :class:`ExecutionPolicy` holds the worker
count, and :class:`ParallelClassifier` cuts any pair source's stream
into fixed-size batches (:func:`chunked`) and classifies them —
in-process with one worker, across the worker pool of
:mod:`repro.engine.pool` with more — with results guaranteed identical
to the serial order (see ``tests/test_engine_parallel.py`` and
``tests/test_backend_equivalence.py``).
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "ClassifierFactory": "executor",
        "ConstantClassifierFactory": "executor",
        "ParallelClassifier": "executor",
        "bare_ods": "executor",
        "chunked": "executor",
        "score_batch": "executor",
        "ExecutionPolicy": "policy",
    },
)
