"""Corpus: the data side of a detection session.

A corpus owns the sources (documents plus optional schemas), resolves
and caches schemas *outside* the :class:`~repro.core.source.Source`
value (a ``Source`` shared across runs stays immutable), and generates
object descriptions for a ``(mapping, real-world type, config)``
triple — steps 1-3 of the framework pipeline, with the exact candidate
ordering the batch algorithm uses (sorted candidate XPaths outer,
sources in insertion order inner).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .._lazy import resolve
from ..core.source import Source
from ..xmlkit.tree import Document, Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import DogmatixConfig
    from ..framework.mapping import TypeMapping
    from ..framework.od import ObjectDescription
    from ..xmlkit.schema import Schema

SourceLike = Union[Source, Document, Element]


class Corpus:
    """Sources plus their resolved schemas, reusable across sessions.

    Schema inference is cached per source *here*, keyed by identity, so
    adding the same schema-less source to two corpora (or running it
    through many sessions) infers its schema once per corpus and never
    mutates the source itself.
    """

    def __init__(self, sources: SourceLike | Iterable[SourceLike] = ()) -> None:
        self._sources: list[Source] = []
        # Keyed by the Source value itself (frozen, hashable), which
        # also keeps it alive — an id()-keyed cache would hand out a
        # dead source's schema once the id is recycled.
        self._schemas: dict[Source, Schema] = {}
        if isinstance(sources, (Source, Document, Element)):
            sources = [sources]
        for source in sources:
            self.add_source(source)

    # ------------------------------------------------------------------
    def add_source(
        self, source: SourceLike, schema: Optional[Schema] = None
    ) -> Source:
        """Add one source; returns the (immutable) ``Source`` record.

        ``schema`` may accompany a bare document/element; passing one
        alongside a ``Source`` that already carries a schema is an
        error rather than a silent override.
        """
        if isinstance(source, Source):
            if schema is not None and source.schema is not None:
                raise ValueError(
                    "source already carries a schema; cannot override it"
                )
            if schema is not None:
                source = Source(source.document, schema)
        else:
            source = Source(source, schema)
        self._sources.append(source)
        return source

    @property
    def sources(self) -> tuple[Source, ...]:
        return tuple(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self) -> Iterator[Source]:
        return iter(self._sources)

    # ------------------------------------------------------------------
    def schema_of(self, source: Source) -> Schema:
        """The source's schema — given, or inferred once and cached.

        Inference (and the schema model under it) loads with the first
        source that needs it: a warm open holds its sources and infers
        nothing until an ``extend()`` or a foreign element asks.
        """
        if source.schema is not None:
            return source.schema
        cached = self._schemas.get(source)
        if cached is None:
            infer_schema = resolve("repro.xmlkit.schema_infer:infer_schema")
            cached = self._schemas[source] = infer_schema(source.document)
        return cached

    # ------------------------------------------------------------------
    def generate_ods(
        self,
        mapping: TypeMapping,
        real_world_type: str,
        config: DogmatixConfig,
        sources: Optional[Sequence[Source]] = None,
        next_id: int = 0,
    ) -> list[ObjectDescription]:
        """Steps 1-3: candidates, descriptions, OD generation.

        ``sources`` restricts generation to a subset (used by
        incremental ingestion); ids continue from ``next_id``.
        Candidates from different schema elements (e.g. ``movie`` and
        ``film``) get descriptions selected from *their* schema, so
        structurally different sources coexist in one candidate set.
        """
        source_list = self._sources if sources is None else list(sources)
        selector = config.selector
        compile_path = resolve("repro.xmlkit.xpath:compile_path")
        ods: list[ObjectDescription] = []
        for xpath in sorted(mapping.xpaths_of(real_world_type)):
            compiled = compile_path(xpath)
            for source in source_list:
                schema = self.schema_of(source)
                declaration = schema.get(xpath)
                if declaration is None:
                    continue  # this source does not contain the element
                description = selector.description_definition(
                    declaration, include_empty=config.include_empty
                )
                for element in compiled.select(source.document):
                    ods.append(description.generate_od(next_id, element))
                    next_id += 1
        return ods
