"""engine: the worker count and the one process pool.

:class:`ExecutionPolicy` names a worker count; :class:`RunSpec` still
builds one from a spec's ``workers`` field, though no detection path
reads it (every ``detect()`` runs in the calling process).  The worker
pool (:mod:`repro.engine.pool`) serves parallel ingestion
(:class:`~repro.ingest.builder.ParallelIngestor`) and is imported only
when that opens one.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(__name__, {"ExecutionPolicy": "policy"})
