"""Candidate definition and candidate query execution (framework step 1).

Definition 1 of the paper: the duplicate candidates of real-world type
``T`` are the union of all instances of the schema elements mapped to
``T``.  Here the schema elements are generic XPaths; execution selects
the matching elements of a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..xmlkit.tree import Document, Element
from ..xmlkit.xpath import XPath, compile_path
from .mapping import TypeMapping


@dataclass(frozen=True)
class CandidateDefinition:
    """``S_T``: the schema elements describing one real-world type."""

    real_world_type: str
    xpaths: tuple[str, ...]
    _compiled: tuple[XPath, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.xpaths:
            raise ValueError(
                f"candidate definition for {self.real_world_type!r} needs xpaths"
            )
        object.__setattr__(
            self, "_compiled", tuple(compile_path(p) for p in self.xpaths)
        )

    @classmethod
    def from_mapping(
        cls, mapping: TypeMapping, real_world_type: str
    ) -> "CandidateDefinition":
        """Candidate selection by picking a type from the mapping *M*."""
        return cls(real_world_type, tuple(sorted(mapping.xpaths_of(real_world_type))))

    def select(self, documents: Document | Element | Iterable[Document | Element]) -> list[Element]:
        """Execute the candidate query: Ω_T over one or more documents.

        Elements are returned in (document, document-order) sequence;
        their index in this list is the candidate's object id.

        One element may match several xpaths; duplicates are dropped by
        a *stable* identity — (document index, document-order ordinal)
        — never by raw ``id(element)``, whose values depend on
        interpreter object reuse and could alias a recycled address
        across documents.  The ordinal map costs one tree traversal per
        document (``id`` is only its transient lookup key, safe because
        the tree keeps every node alive for the duration of the call).
        Structurally identical elements of *different* documents stay
        distinct candidates; listing the same document (or its tree)
        twice contributes its candidates once.
        """
        if isinstance(documents, (Document, Element)):
            documents = [documents]
        seen: set[tuple[int, int]] = set()
        seen_roots: set[int] = set()
        unique: list[Element] = []
        document_index = 0
        for document in documents:
            root = document.root if isinstance(document, Document) else document
            if id(root) in seen_roots:  # same tree listed twice
                continue
            seen_roots.add(id(root))
            ordinals = {id(node): n for n, node in enumerate(root.iter())}
            for xpath in self._compiled:
                for element in xpath.select(document):
                    identity = (document_index, ordinals[id(element)])
                    if identity not in seen:
                        seen.add(identity)
                        unique.append(element)
            document_index += 1
        return unique
