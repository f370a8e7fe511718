"""The XML Dirty Data Generator.

Reimplementation of the tool the paper used to build Dataset 1
(http://www.informatik.hu-berlin.de/mac/dirtyxml/, no longer
distributed), with the same four parameters:

* ``duplicate_fraction`` — percentage of objects to duplicate,
* ``typo_rate`` — percentage of typographical errors,
* ``missing_rate`` — percentage of missing data,
* ``synonym_rate`` — percentage of synonymous (but contradictory) data.

Rates apply per text value (typos, synonyms) and per optional element
(missing data) on the duplicated copy.  Originals are never modified.
Duplicated elements carry the same ``gid`` attribute as their original,
which is the machine-readable gold standard (attributes never enter
object descriptions, so the marker cannot leak into similarity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..xmlkit.tree import Element
from .synonyms import DEFAULT_SYNONYMS, SynonymTable
from .typos import corrupt

#: Gold-standard attribute carried by generated objects.
GOLD_ATTRIBUTE = "gid"


@dataclass(frozen=True)
class DirtyConfig:
    """The four knobs of the dirty-data generator.

    Paper settings for Dataset 1: 100% duplicates, 20% typos, 10%
    missing data, 8% synonyms.
    """

    duplicate_fraction: float = 1.0
    typo_rate: float = 0.20
    missing_rate: float = 0.10
    synonym_rate: float = 0.08

    def __post_init__(self) -> None:
        for name in ("duplicate_fraction", "typo_rate", "missing_rate", "synonym_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def paper_dataset1(cls) -> "DirtyConfig":
        return cls(1.0, 0.20, 0.10, 0.08)


class DirtyDataGenerator:
    """Duplicates XML elements with controlled errors."""

    def __init__(
        self,
        config: DirtyConfig,
        seed: int,
        synonyms: SynonymTable = DEFAULT_SYNONYMS,
        optional_paths: frozenset[str] | None = None,
    ) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self.synonyms = synonyms
        #: Relative paths (tag chains like "genre" or "tracks/title")
        #: eligible for missing-data removal.  None = any non-first
        #: child element is eligible.
        self.optional_paths = optional_paths

    # ------------------------------------------------------------------
    def duplicate(self, original: Element) -> Element:
        """A dirty copy of ``original`` (same gid attribute)."""
        copy = original.copy()
        self._drop_elements(copy)
        self._mutate_text(copy)
        return copy

    def duplicate_corpus(self, originals: list[Element]) -> list[Element]:
        """Dirty duplicates for a ``duplicate_fraction`` sample.

        The sample is the *first* ``round(fraction * n)`` objects after
        a seeded shuffle, so sweeping the fraction (Fig. 8) yields
        nested duplicate sets.
        """
        order = list(range(len(originals)))
        self.rng.shuffle(order)
        count = round(self.config.duplicate_fraction * len(originals))
        return [self.duplicate(originals[index]) for index in sorted(order[:count])]

    # ------------------------------------------------------------------
    def _drop_elements(self, element: Element) -> None:
        """Missing data: remove optional descendants with
        ``missing_rate``; never removes the last child of a parent."""
        if self.config.missing_rate <= 0:
            return
        removable: list[tuple[Element, Element]] = []
        for node in element.iter():
            children = node.children
            for child in children:
                relative = self._relative_path(element, child)
                if self.optional_paths is not None:
                    eligible = relative in self.optional_paths
                else:
                    eligible = len(children) > 1
                if eligible:
                    removable.append((node, child))
        for parent, child in removable:
            if len(parent.children) <= 1:
                continue  # keep parents non-empty
            if self.rng.random() < self.config.missing_rate:
                parent.remove(child)

    def _mutate_text(self, element: Element) -> None:
        """Typos and synonyms on the remaining text values."""
        for node in element.iter():
            if not node.children and node.text:
                value = node.text
                roll = self.rng.random()
                if roll < self.config.synonym_rate:
                    replaced = self.synonyms.substitute(value, self.rng)
                    if replaced != value:
                        node.replace_content([replaced])
                        continue
                    # No synonym known: fall through to the typo check
                    # so the overall error rate stays calibrated.
                if roll < self.config.synonym_rate + self.config.typo_rate:
                    node.replace_content([corrupt(value, self.rng)])

    @staticmethod
    def _relative_path(root: Element, node: Element) -> str:
        parts: list[str] = []
        current: Element | None = node
        while current is not None and current is not root:
            parts.append(current.tag)
            current = current.parent
        return "/".join(reversed(parts))


def gold_id(element: Element) -> str | None:
    """The element's gold-standard id, if it carries one."""
    return element.get(GOLD_ATTRIBUTE)
