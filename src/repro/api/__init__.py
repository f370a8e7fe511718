"""api: the session-based public surface of the system.

One prepared, reusable run is the only entry point — nothing rebuilds
schemas, descriptions or the index per call:

* :class:`Corpus` — sources plus cached schemas (``add_source``);
* :class:`DetectionSession` — index/similarity/classifier built once,
  then ``detect()`` (batch, engine-backed), ``match()`` (single-object
  lookup), ``extend()`` (incremental ingestion), ``explain()``
  (immutable :class:`Explanation` values);
* :class:`RunSpec` — a full run as JSON, for the CLI (``--spec``) and
  job queues;
* registries (:data:`HEURISTICS`, :data:`CONDITIONS`,
  :data:`SEMANTICS`) naming every pluggable piece with strings, so specs and user extensions meet in one namespace.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "Corpus": "corpus",
        "SourceLike": "corpus",
        "CONDITIONS": "registries",
        "HEURISTICS": "registries",
        "Registry": "registries",
        "SEMANTICS": "registries",
        "condition_from_spec": "registries",
        "heuristic_from_spec": "registries",
        "DetectionSession": "session",
        "Explanation": "session",
        "IncrementalUpdate": "session",
        "Match": "session",
        "RunSpec": "spec",
    },
)
