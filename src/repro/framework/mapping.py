"""The real-world type mapping *M*.

Section 2.1 of the paper: a mapping associates schema elements (here:
generic XPaths) with real-world types, so that (i) duplicate candidates
of one type can live under several schema elements (``Movie`` and
``Film``), and (ii) the similarity measure knows which OD tuples are
comparable — tuples are comparable iff their XPaths map to the same
real-world type.

The input format the paper describes is "(name of the real-world type,
set of schema elements)"; we support a programmatic builder plus an XML
file representation (see :func:`mapping_from_xml`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .._lazy import resolve
from ..xmlkit.parser import parse
from ..xmlkit.tree import Document, Element, XMLError, strip_positions


class MappingError(XMLError):
    """Raised for inconsistent type mappings."""


class TypeMapping:
    """Mapping from real-world type names to sets of generic XPaths.

    Every XPath may belong to at most one real-world type.  XPaths not
    covered by the mapping implicitly form one type per distinct path
    (path-identity comparability), so partial mappings degrade
    gracefully.
    """

    def __init__(self) -> None:
        self._types: dict[str, set[str]] = {}
        self._by_path: dict[str, str] = {}
        # comparison_key is the hottest lookup in pairwise matching;
        # memoized per concrete (positional) xpath, cleared on add().
        self._key_cache: dict[str, str] = {}
        #: Bumped by :meth:`add`: tells ``ObjectDescription.by_kind`` it is stale.
        self.revision = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, type_name: str, xpaths: Iterable[str] | str) -> "TypeMapping":
        """Associate XPaths with a real-world type; chainable."""
        if not type_name:
            raise MappingError("real-world type name must be non-empty")
        if isinstance(xpaths, str):
            xpaths = [xpaths]
        self._key_cache.clear()
        self.revision += 1
        paths = self._types.setdefault(type_name, set())
        for xpath in xpaths:
            normalized = self._normalize(xpath)
            owner = self._by_path.get(normalized)
            if owner is not None and owner != type_name:
                raise MappingError(
                    f"xpath {normalized!r} already mapped to type {owner!r}"
                )
            self._by_path[normalized] = type_name
            paths.add(normalized)
        return self

    @staticmethod
    def _normalize(xpath: str) -> str:
        text = strip_positions(xpath.strip())
        if text.startswith("$"):
            slash = text.find("/")
            if slash == -1:
                raise MappingError(f"cannot normalize xpath {xpath!r}")
            text = text[slash:]
        if not text.startswith("/"):
            raise MappingError(
                f"mapping xpaths must be absolute, got {xpath!r}"
            )
        return text.rstrip("/")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def type_names(self) -> list[str]:
        return list(self._types)

    def xpaths_of(self, type_name: str) -> set[str]:
        """The schema-element XPaths of a real-world type (``S_T``)."""
        try:
            return set(self._types[type_name])
        except KeyError:
            raise MappingError(f"unknown real-world type {type_name!r}") from None

    def type_of(self, xpath: str) -> Optional[str]:
        """Real-world type of an (absolute, possibly positional) XPath."""
        return self._by_path.get(strip_positions(xpath))

    def comparison_key(self, xpath: str) -> str:
        """Comparability key of an XPath: the mapped real-world type, or
        the generic path itself when unmapped.

        OD tuples are comparable iff their keys are equal.
        """
        cached = self._key_cache.get(xpath)
        if cached is not None:
            return cached
        generic = strip_positions(xpath)
        key = self._by_path.get(generic, generic)
        self._key_cache[xpath] = key
        return key

    def comparable(self, xpath_a: str, xpath_b: str) -> bool:
        """True iff two OD-tuple names represent the same kind of data."""
        return self.comparison_key(xpath_a) == self.comparison_key(xpath_b)

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._types

    def __iter__(self) -> Iterator[tuple[str, set[str]]]:
        for name, paths in self._types.items():
            yield name, set(paths)

    def __len__(self) -> int:
        return len(self._types)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TypeMapping types={len(self._types)} xpaths={len(self._by_path)}>"

    # ------------------------------------------------------------------
    # XML round-trip
    # ------------------------------------------------------------------
    def to_xml(self) -> str:
        """Serialize as the mapping-file format."""
        root = Element("mapping")
        for name in sorted(self._types):
            entry = Element("type", {"name": name})
            for xpath in sorted(self._types[name]):
                entry.append(Element("xpath", content=[xpath]))
            root.append(entry)
        return resolve("repro.xmlkit.serialize:serialize")(Document(root))


def mapping_from_xml(text: str) -> TypeMapping:
    """Parse a mapping file of the form::

        <mapping>
          <type name="MOVIE"><xpath>/moviedoc/movie</xpath></type>
          ...
        </mapping>
    """
    document = parse(text)
    if document.root.tag != "mapping":
        raise MappingError(f"expected <mapping> root, got <{document.root.tag}>")
    mapping = TypeMapping()
    for entry in document.root.children:
        if entry.tag != "type":
            raise MappingError(f"unexpected <{entry.tag}> in mapping file")
        name = entry.get("name")
        if not name:
            raise MappingError("<type> requires a name attribute")
        xpaths = [node.text for node in entry.find_all("xpath") if node.text]
        if not xpaths:
            raise MappingError(f"type {name!r} lists no xpaths")
        mapping.add(name, xpaths)
    return mapping
