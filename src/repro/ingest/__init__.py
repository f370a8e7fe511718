"""ingest: parallel, mergeable corpus construction and persistent
index snapshots.

Pipeline step 5 (pairwise classification) runs across worker
processes (:mod:`repro.engine`).  This package does the same for steps
1-3 (candidate selection, description selection, OD generation) plus
corpus-index construction, and adds the first piece of cross-run state:

* :class:`ParallelIngestor` — partitions the candidate objects of
  already-parsed sources across a process pool; each worker selects
  descriptions, generates ODs, and builds a *partial* corpus index
  (:class:`~repro.core.index.IndexPartial`) that the parent merges
  associatively into an index observably identical to the serial
  build.  No session uses it (a session builds in the parent, which
  is faster); the benchmark still times it;
* :class:`IndexStore` — a versioned, content-addressed on-disk
  snapshot store so sessions warm-start across CLI invocations and
  serving processes instead of rebuilding steps 1-3 per process.

Delta ingestion (merging a new source's partial into a *live* session
index) rides on the same :class:`~repro.core.index.IndexPartial`
algebra — see :meth:`repro.api.DetectionSession.extend`.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "CHUNK_FACTOR": "builder",
        "IngestReport": "builder",
        "ParallelIngestor": "builder",
        "FORMAT_VERSION": "store",
        "IndexStore": "store",
        "SnapshotInfo": "store",
    },
)
