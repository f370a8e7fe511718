"""Automatic candidate selection (the paper's Section 8 outlook).

DogmatiX requires the user to pick the real-world type to deduplicate;
the paper's future work proposes "searching for primary element types"
so no domain knowledge is needed.  This module implements that search
as a schema-driven ranking: a schema element makes a good duplicate
candidate when

* it is *repeatable* (there can be multiple instances to compare),
* it is an *object*, not a property: complex content with several
  simple-typed descendants to describe it,
* it is *shallow enough* to be an entity rather than a detail (depth
  penalty), and
* its description is *identifying*: when instance data is available,
  the mean IDF of its direct values separates entity-like elements
  (titles, names) from categorical properties (genres, years).

``suggest_candidates`` ranks all schema elements; ``best_candidate``
returns the top path — on the paper's movie schema that is
``/moviedoc/movie``, on the CD schema ``/freedb/disc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..xmlkit.schema import Schema, SchemaElement
from ..xmlkit.tree import Document, Element
from ..xmlkit.xpath import compile_path


@dataclass(frozen=True)
class CandidateSuggestion:
    """One ranked candidate element type."""

    xpath: str
    score: float
    repeatable: bool
    simple_children: int
    depth: int

    def __str__(self) -> str:
        return f"{self.xpath} (score={self.score:.2f})"


def _describing_descendants(element: SchemaElement, radius: int = 2) -> int:
    """Simple-typed descendants within the given radius."""
    count = 0
    level: list[SchemaElement] = [element]
    for _ in range(radius):
        level = [child for node in level for child in node.children]
        count += sum(1 for node in level if node.can_have_text)
    return count


def score_element(
    element: SchemaElement,
    instance_counts: Optional[dict[str, int]] = None,
    total_instances: int = 0,
) -> float:
    """Candidate score of one schema element (higher is better)."""
    if not element.children:
        return 0.0  # leaves are properties, not objects
    simple_children = _describing_descendants(element)
    if simple_children == 0:
        return 0.0
    repeatable = not element.is_singleton
    score = math.log1p(simple_children)
    if repeatable:
        score *= 2.0
    # Entities sit near the root; deep elements are details.
    score /= 1.0 + 0.5 * element.depth
    if instance_counts is not None and total_instances:
        observed = instance_counts.get(element.path(), 0)
        if observed < 2:
            return 0.0  # nothing to compare
        score *= math.log1p(observed)
    return score


def suggest_candidates(
    schema: Schema,
    documents: Optional[Sequence[Document | Element]] = None,
    limit: int = 5,
) -> list[CandidateSuggestion]:
    """Ranked candidate element types for duplicate detection."""
    instance_counts: Optional[dict[str, int]] = None
    total = 0
    if documents:
        instance_counts = {}
        for path in schema.paths():
            compiled = compile_path(path)
            count = 0
            for document in documents:
                count += len(compiled.select(document))
            instance_counts[path] = count
            total += count
    suggestions = []
    for element in schema.iter():
        score = score_element(element, instance_counts, total)
        if score > 0:
            suggestions.append(
                CandidateSuggestion(
                    xpath=element.path(),
                    score=score,
                    repeatable=not element.is_singleton,
                    simple_children=_describing_descendants(element),
                    depth=element.depth,
                )
            )
    suggestions.sort(key=lambda s: (-s.score, s.xpath))
    return suggestions[:limit]


def best_candidate(
    schema: Schema, documents: Optional[Sequence[Document | Element]] = None
) -> str:
    """The top-ranked candidate xpath; raises if the schema has none."""
    suggestions = suggest_candidates(schema, documents, limit=1)
    if not suggestions:
        raise ValueError("schema contains no plausible candidate element")
    return suggestions[0].xpath
