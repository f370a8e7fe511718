"""Object descriptions (ODs).

Definition 3 of the paper: an OD is a relation with schema
``OD(value, name)`` — for XML, ``value`` is the text node of a selected
element and ``name`` is its absolute XPath in the document.  An OD
instance describes one duplicate candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from ..xmlkit.tree import Document, Element
from .mapping import TypeMapping


@dataclass(frozen=True, order=True)
class ODTuple:
    """One ``(value, name)`` pair of an object description."""

    value: str
    name: str

    def __str__(self) -> str:
        return f"({self.value}, {self.name})"


class ObjectDescription:
    """The description of one duplicate candidate.

    Attributes
    ----------
    object_id:
        Index of the candidate within the candidate set Ω_T.
    element:
        The candidate's XML element (None for externally supplied ODs —
        the framework deliberately allows descriptions not constrained
        by the data source, see Definition 2).  An OD read back from a
        snapshot (:meth:`stored`) resolves it on first read, through its
        document and the element's rank there.
    tuples:
        The OD tuples, in selection order.
    """

    __slots__ = ("object_id", "_element", "_anchor", "tuples", "_kinds")

    def __init__(
        self,
        object_id: int,
        tuples: Iterable[ODTuple],
        element: Optional[Element] = None,
    ) -> None:
        self.object_id = object_id
        self._element = element
        #: (document, rank, absolute path) of a stored OD's element
        self._anchor: Optional[tuple[Document, int, str]] = None
        self.tuples: tuple[ODTuple, ...] = tuple(tuples)
        self._kinds: Optional[tuple] = None  # see by_kind

    @classmethod
    def stored(
        cls,
        object_id: int,
        tuples: Iterable[ODTuple],
        document: Document,
        rank: int,
        path: str,
    ) -> "ObjectDescription":
        """An OD whose element is ``document.element_at(rank)``, looked
        up on the first read of :attr:`element`; ``path`` is that
        element's absolute path, which :attr:`path` answers without a
        tree."""
        od = cls(object_id, tuples)
        od._anchor = (document, rank, path)
        return od

    @property
    def element(self) -> Optional[Element]:
        element = self._element
        if element is None and self._anchor is not None:
            document, rank, _ = self._anchor
            # racing readers store the one node the document holds
            element = self._element = document.element_at(rank)
        return element

    @element.setter
    def element(self, element: Optional[Element]) -> None:
        self._element = element
        self._anchor = None

    @property
    def path(self) -> Optional[str]:
        """The candidate's absolute XPath (None without an element):
        the stored one for a :meth:`stored` OD, read without a tree."""
        if self._anchor is not None:
            return self._anchor[2]
        element = self._element
        return None if element is None else element.absolute_path()

    def describes(self, element: Element) -> bool:
        """Whether ``element`` is this OD's candidate.  A stored OD
        whose tree is not decoded yet answers no without decoding it:
        no caller can hold one of that tree's elements."""
        anchor = self._anchor
        if self._element is None and anchor is not None and not anchor[0].decoded:
            return False
        return self.element is element

    def __reduce__(self) -> tuple:
        return type(self), (self.object_id, self.tuples, self.element)

    def by_kind(self, mapping: TypeMapping) -> Mapping[str, tuple[ODTuple, ...]]:
        """The tuples grouped by comparison key, kinds and tuples in
        selection order: what step 5 reads of an OD, in every pair.

        Kept on the OD with the mapping it was computed under — not in a
        memo keyed by ``object_id``: a fused representative carries a
        member's id, and foreign ``match()`` ODs are unbounded.  Racing
        reader threads each publish the same read-only value by one
        assignment.  Copies and pickles carry id, tuples, element only.
        """
        cached = self._kinds
        if cached is None or cached[0] is not mapping or cached[1] != mapping.revision:
            kinds: dict[str, list[ODTuple]] = {}
            for odt in self.tuples:
                kinds.setdefault(mapping.comparison_key(odt.name), []).append(odt)
            grouped = MappingProxyType({key: tuple(kinds[key]) for key in kinds})
            cached = self._kinds = (mapping, mapping.revision, grouped)
        return cached[2]

    def __iter__(self) -> Iterator[ODTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def values(self) -> list[str]:
        return [odt.value for odt in self.tuples]

    def names(self) -> list[str]:
        return [odt.name for odt in self.tuples]

    def non_empty(self) -> "ObjectDescription":
        """Copy without empty-valued tuples.

        Elements without a text node produce empty values; the paper's
        content-model discussion (Condition 1) notes these are neither
        similar nor contradictory to anything, so dropping them is the
        conservative treatment when the selection was not already
        filtered by c_cm.
        """
        copy = ObjectDescription(
            self.object_id,
            (odt for odt in self.tuples if odt.value != ""),
            self._element,
        )
        copy._anchor = self._anchor
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OD #{self.object_id} tuples={len(self.tuples)}>"


def od_from_pairs(
    object_id: int, pairs: Iterable[tuple[str, str]], element: Optional[Element] = None
) -> ObjectDescription:
    """Build an OD from raw ``(value, name)`` pairs."""
    return ObjectDescription(
        object_id, (ODTuple(value, name) for value, name in pairs), element
    )
