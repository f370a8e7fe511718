"""Combining heuristics with conditions (Section 4.3, Combination 3)
and turning the result into a framework description definition.

``h[c]`` keeps the heuristic's selected elements that satisfy the
condition; the surviving schema elements are rendered as XPaths
relative to the candidate and packaged as a
:class:`~repro.framework.description.DescriptionDefinition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..framework.description import DescriptionDefinition
from .heuristics import Heuristic, relative_xpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..xmlkit.schema import Schema, SchemaElement
    from .conditions import Condition


@dataclass(frozen=True)
class DescriptionSelector:
    """``h[c]``: a heuristic refined by an optional condition."""

    heuristic: Heuristic
    condition: Optional[Condition] = None

    def select_elements(self, e0: SchemaElement) -> list[SchemaElement]:
        """The refined selection σ' as schema elements."""
        selected = self.heuristic.select(e0)
        if self.condition is None:
            return selected
        return [
            element for element in selected if self.condition(e0, element)
        ]

    def select_xpaths(self, e0: SchemaElement) -> list[str]:
        """σ' as XPaths relative to e0 (Definition 5)."""
        return [
            relative_xpath(e0, element) for element in self.select_elements(e0)
        ]

    def description_definition(
        self, e0: SchemaElement, include_empty: bool = False
    ) -> DescriptionDefinition:
        """Package σ' for the framework pipeline.

        Ancestor selections (``..`` chains) contribute the ancestor's
        text node, mirroring descendant tuples.
        """
        xpaths = self.select_xpaths(e0)
        return DescriptionDefinition(tuple(xpaths), include_empty=include_empty)


def refine(heuristic: Heuristic, condition: Optional[Condition]) -> DescriptionSelector:
    """Spell ``h[c]`` as a function."""
    return DescriptionSelector(heuristic, condition)


def candidate_schema_element(schema: Schema, candidate_xpath: str) -> SchemaElement:
    """Resolve a candidate-definition XPath to its schema declaration."""
    return schema.element_at(candidate_xpath)
