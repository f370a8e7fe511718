"""Description definition, description queries, and OD generation
(framework steps 2 and 3).

Definition 2/5 of the paper: a candidate's description is a selection σ
of XPaths relative to the candidate element.  Executing the description
query selects the matching elements; OD generation flattens each into an
OD tuple ``(text, absolute-xpath)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..xmlkit.tree import Element
from ..xmlkit.xpath import XPath, compile_path
from .od import ObjectDescription, ODTuple


@dataclass(frozen=True)
class DescriptionDefinition:
    """σ: a set of relative XPaths defining a candidate's description.

    ``include_empty`` keeps tuples whose element has no text node
    (useful to study Condition 1; DogmatiX drops them by default).
    """

    xpaths: tuple[str, ...]
    include_empty: bool = False
    _compiled: tuple[XPath, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.xpaths))
        object.__setattr__(self, "xpaths", deduped)
        object.__setattr__(
            self, "_compiled", tuple(compile_path(p) for p in deduped)
        )

    def select(self, candidate: Element) -> list[Element]:
        """Execute the description query for one candidate."""
        selected: list[Element] = []
        seen: set[int] = set()
        for xpath in self._compiled:
            for element in xpath.select(candidate):
                if id(element) not in seen:
                    seen.add(id(element))
                    selected.append(element)
        return selected

    def generate_od(self, object_id: int, candidate: Element) -> ObjectDescription:
        """OD generation: flatten the description query result.

        Every selected element becomes one OD tuple ``(text, xpath)``
        with ``xpath`` the element's absolute path in the document.
        """
        tuples: list[ODTuple] = []
        for element in self.select(candidate):
            value = element.text
            if value or self.include_empty:
                tuples.append(ODTuple(value, element.absolute_path()))
        return ObjectDescription(object_id, tuples, candidate)


def generate_ods(
    definition: DescriptionDefinition, candidates: Iterable[Element]
) -> list[ObjectDescription]:
    """ODs for a full candidate set; object ids are list positions."""
    return [
        definition.generate_od(object_id, candidate)
        for object_id, candidate in enumerate(candidates)
    ]
