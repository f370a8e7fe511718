"""RunSpec: one full detection run as a serializable value.

A :class:`RunSpec` names everything a run needs — documents, schemas,
the mapping file, the candidate type, and every knob of
:class:`~repro.core.config.DogmatixConfig` plus the execution policy —
using registry strings only, so it round-trips through JSON without
loss (``RunSpec.from_json(spec.to_json()).to_config() ==
spec.to_config()``, execution policy included).

Specs are the exchange format between the CLI (``--spec run.json``),
services that queue detection jobs, and the session API:
``RunSpec.load(path).build_session()`` yields a ready
:class:`~repro.api.session.DetectionSession`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from ..core.config import DogmatixConfig
from ..core.encodings import require_dict_encoding
from ..core.source import Source
from ..engine.policy import DEFAULT_BATCH_SIZE, ExecutionPolicy, SHARD_MODES
from ..framework.mapping import TypeMapping, mapping_from_xml
from ..strings.value_index import require_qgram_strategy
from ..xmlkit.parser import parse_file
from .registries import (
    BACKENDS,
    SEMANTICS,
    condition_from_spec,
    heuristic_from_spec,
)


@dataclass
class RunSpec:
    """A complete, serializable description of one detection run.

    Attributes
    ----------
    documents:
        XML document paths (at least one).
    mapping:
        Path of the mapping *M* file (XML).
    real_world_type:
        The candidate type to deduplicate.
    schemas:
        XSD paths paired with ``documents`` positionally: the i-th
        schema belongs to the i-th document; documents beyond the list
        get inferred schemas.  More schemas than documents is an error.
    heuristic / conditions:
        Registry spec strings (see :mod:`repro.api.registries`), e.g.
        ``"kclosest:6"`` and ``"sdt,me"``.
    theta_tuple ... similar_semantics:
        The corresponding :class:`DogmatixConfig` fields.
    workers / batch_size / backend / shard_by / filter_in_workers:
        The execution policy.  ``backend=None`` derives it from the
        worker count (``process`` when > 1); ``workers=0`` means all
        cores.  ``backend="shard"`` moves pair generation into the
        workers; ``shard_by`` picks its strategy (``block`` |
        ``object``) and is ignored by the other backends.
        ``filter_in_workers`` additionally evaluates the object filter
        inside the workers (shard backend only — setting it with no
        explicit backend selects ``shard``, mirroring the CLI flag).
    ingest_workers:
        Worker processes for corpus *construction* (document parsing,
        OD generation, index building — see :mod:`repro.ingest`);
        ``0`` means all cores, ``1`` (default) builds in the parent.
        Independent of the detection backend; results are identical.
    """

    documents: list[str]
    mapping: str
    real_world_type: str
    schemas: list[str] = field(default_factory=list)
    heuristic: str = "kclosest:6"
    conditions: Optional[str] = None
    theta_tuple: float = 0.15
    theta_cand: float = 0.55
    use_object_filter: bool = True
    use_blocking: bool = True
    include_empty: bool = False
    possible_threshold: Optional[float] = None
    similar_semantics: str = "matching"
    #: ``None`` or ``"qgram"``, the one similar-value index, for specs
    #: that still name it; any other value raises.  A spec or store
    #: manifest written under the removed ``"signature"`` strategy loads
    #: as ``"qgram"``: the two answered bit-identically, and the
    #: strategy never entered the index store's content key.
    similarity_strategy: Optional[str] = None
    #: ``None`` or ``"dict"``, the one index representation, for specs
    #: that still name it; any other value raises.
    index_encoding: Optional[str] = None
    workers: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    backend: Optional[str] = None
    shard_by: str = "block"
    filter_in_workers: bool = False
    ingest_workers: int = 1

    def __post_init__(self) -> None:
        if not self.documents:
            raise ValueError("RunSpec needs at least one document")
        if len(self.schemas) > len(self.documents):
            raise ValueError(
                f"got {len(self.schemas)} schemas for {len(self.documents)} "
                "documents; schemas pair with documents positionally"
            )
        heuristic_from_spec(self.heuristic)  # validate eagerly
        condition_from_spec(self.conditions)
        SEMANTICS.get(self.similar_semantics)
        if self.similarity_strategy == "signature":
            self.similarity_strategy = "qgram"
        if self.similarity_strategy is not None:
            require_qgram_strategy(self.similarity_strategy)
        if self.index_encoding is not None:
            require_dict_encoding(self.index_encoding)
        if self.backend is not None:
            BACKENDS.get(self.backend)
        if self.shard_by not in SHARD_MODES:
            raise ValueError(
                f"shard_by must be one of {SHARD_MODES}, got {self.shard_by!r}"
            )
        if self.filter_in_workers and self.backend not in (None, "shard"):
            raise ValueError(
                f"filter_in_workers requires the shard backend (or no "
                f"explicit backend, which then selects it), got "
                f"backend={self.backend!r}"
            )
        if self.filter_in_workers and not self.use_object_filter:
            raise ValueError(
                "filter_in_workers has no filter to shard with "
                "use_object_filter=False; enable the filter or drop the "
                "flag"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.ingest_workers < 0:
            raise ValueError(
                f"ingest_workers must be >= 0, got {self.ingest_workers}"
            )

    # ------------------------------------------------------------------
    # Config / policy
    # ------------------------------------------------------------------
    def execution_policy(self) -> ExecutionPolicy:
        """The execution policy this spec describes.

        A non-default ``shard_by`` — or ``filter_in_workers`` — with no
        explicit backend selects the shard backend, mirroring the CLI
        where ``--shard-by``/``--filter-in-workers`` imply it, instead
        of silently demoting the requested sharding to parent-side
        evaluation.  (The default ``shard_by="block"`` is
        indistinguishable from "unset", so plain block sharding needs
        ``backend="shard"`` spelled out.)
        """
        ingest = self.ingest_workers or (os.cpu_count() or 1)
        if (
            self.backend is None
            and self.shard_by == "block"
            and not self.filter_in_workers
        ):
            policy = ExecutionPolicy.for_workers(self.workers, self.batch_size)
            if ingest != policy.ingest_workers:
                policy = replace(policy, ingest_workers=ingest)
            return policy
        workers = self.workers or (os.cpu_count() or 1)
        return ExecutionPolicy(
            workers=workers,
            batch_size=self.batch_size,
            backend=self.backend or "shard",
            shard_by=self.shard_by,
            filter_in_workers=self.filter_in_workers,
            ingest_workers=ingest,
        )

    def to_config(self) -> DogmatixConfig:
        """The :class:`DogmatixConfig` this spec describes."""
        return DogmatixConfig(
            heuristic=heuristic_from_spec(self.heuristic),
            condition=condition_from_spec(self.conditions),
            theta_tuple=self.theta_tuple,
            theta_cand=self.theta_cand,
            use_object_filter=self.use_object_filter,
            use_blocking=self.use_blocking,
            include_empty=self.include_empty,
            possible_threshold=self.possible_threshold,
            similar_semantics=SEMANTICS.canonical_name(self.similar_semantics),
            execution=self.execution_policy(),
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {', '.join(unknown)}")
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("RunSpec JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        """Read a spec file; relative file paths resolve against it."""
        with open(path, encoding="utf-8") as handle:
            spec = cls.from_json(handle.read())
        base = os.path.dirname(os.path.abspath(path))
        spec.documents = [_resolve(base, p) for p in spec.documents]
        spec.schemas = [_resolve(base, p) for p in spec.schemas]
        spec.mapping = _resolve(base, spec.mapping)
        return spec

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def load_sources(self) -> list[Source]:
        """Parse the documents (and their schemas, where given)."""
        parsed_schemas = self._load_schemas()
        sources = []
        for index, path in enumerate(self.documents):
            schema = parsed_schemas[index] if index < len(parsed_schemas) else None
            sources.append(Source(parse_file(path), schema))
        return sources

    def _load_schemas(self) -> list:
        """The XSDs parsed; a run without any never loads the parser."""
        if not self.schemas:
            return []
        from ..xmlkit.schema_parser import parse_schema_file

        return [parse_schema_file(path) for path in self.schemas]

    def load_mapping(self) -> TypeMapping:
        with open(self.mapping, encoding="utf-8") as handle:
            return mapping_from_xml(handle.read())

    def build_session(self):
        """A ready :class:`~repro.api.session.DetectionSession`.

        With ``ingest_workers`` > 1 construction routes through
        :class:`repro.ingest.ParallelIngestor`, which also parses the
        documents inside the pool — the session is identical either
        way.
        """
        from .session import DetectionSession

        config = self.to_config()
        if config.execution.ingest_workers > 1:
            from ..ingest.builder import ParallelIngestor

            ingestor = ParallelIngestor(config.execution.ingest_workers)
            return ingestor.build_session(
                self.documents,
                self.load_mapping(),
                self.real_world_type,
                config,
                schemas=self._load_schemas(),
            )
        return DetectionSession(
            self.load_sources(),
            self.load_mapping(),
            self.real_world_type,
            config,
        )


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)
