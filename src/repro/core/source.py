"""Source: one input of a detection run (a document and its schema)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..xmlkit.tree import Document, Element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..xmlkit.schema import Schema


@dataclass(frozen=True)
class Source:
    """One data source: a document and (optionally) its schema.

    A missing schema is inferred from the document — matching how the
    paper's datasets (FreeDB extracts) come without an XSD.  The value
    is immutable; inferred schemas are cached per corpus by
    :class:`repro.api.Corpus`, never written back onto a source shared
    across runs.
    """

    document: Document | Element
    schema: Schema | None = None

    def resolved_schema(self) -> Schema:
        """The given schema, or a fresh inference (not cached here —
        use :meth:`repro.api.Corpus.schema_of` for cached resolution)."""
        if self.schema is None:
            from ..xmlkit.schema_infer import infer_schema

            return infer_schema(self.document)
        return self.schema
