"""RunSpec: one full detection run as a serializable value.

A :class:`RunSpec` names everything a run needs — documents, schemas,
the mapping file, the candidate type, and every knob of
:class:`~repro.core.config.DogmatixConfig` — using registry strings
only, so it round-trips through JSON without loss
(``RunSpec.from_json(spec.to_json()).to_config() == spec.to_config()``).

Specs are the exchange format between the CLI (``--spec run.json``),
services that queue detection jobs, and the session API:
``RunSpec.load(path).build_session()`` yields a ready
:class:`~repro.api.session.DetectionSession`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .._lazy import resolve
from ..core.config import DogmatixConfig, check_thresholds
from ..core.source import Source
from ..engine.policy import ExecutionPolicy
from ..framework.mapping import TypeMapping, mapping_from_xml
from ..xmlkit.parser import parse_file
from .registries import SEMANTICS, condition_from_spec, heuristic_from_spec


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
    workers:
        A worker count (``0`` means all cores), checked and kept in the
        JSON but without effect: a session runs every detection in one
        loop in its own process.
    backend:
        ``None``, or the backend the worker count names, for specs
        that still carry it: ``"serial"`` (one worker) or ``"process"``.
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
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.documents:
            raise ValueError("RunSpec needs at least one document")
        if len(self.schemas) > len(self.documents):
            raise ValueError(
                f"got {len(self.schemas)} schemas for {len(self.documents)} "
                "documents; schemas pair with documents positionally"
            )
        heuristic_from_spec(self.heuristic)  # validate eagerly
        check_thresholds(self.theta_tuple, self.theta_cand, self.possible_threshold)
        condition_from_spec(self.conditions)
        SEMANTICS.get(self.similar_semantics)
        if self.similarity_strategy == "signature":
            self.similarity_strategy = "qgram"
        # resolved here: importing the spec loads no index code
        if self.similarity_strategy is not None:
            resolve("repro.strings.qgram:require_qgram_strategy")(
                self.similarity_strategy
            )
        if self.index_encoding is not None:
            resolve("repro.core.index:require_dict_encoding")(self.index_encoding)
        if self.backend not in (None, "serial", "process"):
            raise LookupError(
                f"unknown backend {self.backend!r}; known: serial, process "
                "(the shard backend was removed)"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        self.execution_policy()  # one check for every execution field

    # ------------------------------------------------------------------
    # Config / policy
    # ------------------------------------------------------------------
    def execution_policy(self) -> ExecutionPolicy:
        """The execution policy ``workers`` and ``backend`` describe.

        A ``"serial"`` backend with more than one worker would run
        single-process anyway, so it is rejected rather than obeyed.
        """
        policy = ExecutionPolicy.for_workers(self.workers)
        if self.backend == "serial" and policy.parallel:
            raise ValueError(
                f"backend='serial' with workers={policy.workers} would run "
                "single-process anyway; drop the backend or set workers=1"
            )
        return policy

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
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        data = _without_removed_settings(data)
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
        """Parse the documents (and their schemas, where given).

        A run without schemas never loads the XSD parser.
        """
        schemas: list = []
        if self.schemas:
            from ..xmlkit.schema_parser import parse_schema_file

            schemas = [parse_schema_file(path) for path in self.schemas]
        schemas += [None] * (len(self.documents) - len(schemas))
        return [
            Source(parse_file(path), schema)
            for path, schema in zip(self.documents, schemas)
        ]

    def load_mapping(self) -> TypeMapping:
        with open(self.mapping, encoding="utf-8") as handle:
            return mapping_from_xml(handle.read())

    def build_session(self):
        """A ready :class:`~repro.api.session.DetectionSession`.

        The documents are parsed, their ODs generated and the index
        built here, in this process.
        """
        from .session import DetectionSession

        return DetectionSession(
            self.load_sources(),
            self.load_mapping(),
            self.real_world_type,
            self.to_config(),
        )


#: Settings of removed execution paths, each with the values it accepted.
_REMOVED_SETTINGS = {
    "shard_by": lambda value: value in ("block", "object"),
    "filter_in_workers": lambda value: isinstance(value, bool),
    "batch_size": lambda value: isinstance(value, int) and value >= 1,
    "ingest_workers": lambda value: isinstance(value, int) and value >= 0,
}


def _without_removed_settings(data: dict) -> dict:
    """``data`` without the settings of removed execution paths.

    Specs and store manifests written while those paths existed carry
    them (the shard backend's ``shard_by`` / ``filter_in_workers`` and
    ``backend: "shard"``; ``batch_size``; ``ingest_workers``).  None
    changed a result or entered the store's content key, so such a spec
    loads without them (``shard`` as ``process``); a value the old
    setting never accepted raises.
    """
    data = dict(data)
    for name, accepted in _REMOVED_SETTINGS.items():
        if name in data and not accepted(value := data.pop(name)):
            raise ValueError(
                f"{name}={value!r}: not a value the removed {name} "
                "setting accepted"
            )
    if data.get("backend") == "shard":
        data["backend"] = "process"
    return data


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)
