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
  :data:`SEMANTICS`, :data:`BACKENDS`) naming every pluggable piece
  with strings, so specs and user extensions meet in one namespace.
"""

from .corpus import Corpus, SourceLike
from .registries import (
    BACKENDS,
    CONDITIONS,
    HEURISTICS,
    SEMANTICS,
    Registry,
    condition_from_spec,
    heuristic_from_spec,
)
from .session import (
    DetectionSession,
    Explanation,
    IncrementalUpdate,
    Match,
)
from .spec import RunSpec

__all__ = [
    "BACKENDS",
    "CONDITIONS",
    "Corpus",
    "DetectionSession",
    "Explanation",
    "HEURISTICS",
    "IncrementalUpdate",
    "Match",
    "Registry",
    "RunSpec",
    "SEMANTICS",
    "SourceLike",
    "condition_from_spec",
    "heuristic_from_spec",
]
