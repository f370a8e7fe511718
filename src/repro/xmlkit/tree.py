"""Tree model for XML documents.

The DogmatiX algorithm operates on XML element trees: candidates are
elements, object descriptions are built from element text and XPaths,
and the description-selection heuristics walk ancestor/descendant axes.
This module provides the node model everything else builds on.

The model intentionally supports mixed content: an element's ``content``
is an ordered sequence of ``str`` (text nodes) and :class:`Element`
children.  Helper accessors (``children``, ``text``, ``text_content``)
cover the common simple/complex cases.

Only ``append``, ``remove``, ``replace_content`` and ``drop_text``
change an element's content.  A parent caches its child-element tuple
and, in the same pass, numbers its children's path steps (``tag`` or
``tag[k]``); the first three mutators drop the tuple, and the next
reader rebuilds both (``drop_text`` changes no child, so it keeps
them).  The tuple is assigned once, complete, after the numbering it
vouches for, so threads that only read a tree may share it.

:func:`document_record` + :func:`element_record` / :func:`document_from_record`
are the tree's one structural codec, for :mod:`repro.ingest.store`'s
snapshots; :meth:`Document.stored` keeps a record's JSON text and
decodes it on the first read of the tree.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import Iterable, Iterator, Optional


class XMLError(Exception):
    """Base class for all xmlkit errors."""


class Element:
    """A single XML element node.

    Parameters
    ----------
    tag:
        The element name (qualified name, prefixes kept verbatim).
    attributes:
        Attribute name/value mapping.
    content:
        Ordered mixed content: strings (text nodes) and child elements.
    """

    __slots__ = ("tag", "attributes", "_content", "parent", "_children", "_ordinal")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        content: Optional[Iterable["Element | str"]] = None,
    ) -> None:
        if not tag:
            raise XMLError("element tag must be a non-empty string")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.parent: Optional[Element] = None
        self._content: list[Element | str] = []
        self._children: Optional[tuple[Element, ...]] = None
        #: same-tag position under the parent, 0 when the tag is not
        #: repeated there; valid while the parent holds ``_children``
        self._ordinal = 0
        for item in content or ():
            self.append(item)

    # ------------------------------------------------------------------
    # Content manipulation
    # ------------------------------------------------------------------
    def append(self, item: "Element | str") -> None:
        """Append a child element or a text node."""
        if isinstance(item, Element):
            if item.parent is not None:
                raise XMLError(
                    f"element <{item.tag}> already has a parent <{item.parent.tag}>"
                )
            item.parent = self
            self._content.append(item)
            self._children = None
        elif isinstance(item, str):
            self._content.append(item)
        else:  # pragma: no cover - defensive
            raise XMLError(f"cannot append {type(item).__name__} to an element")

    def extend(self, items: Iterable["Element | str"]) -> None:
        for item in items:
            self.append(item)

    def remove(self, child: "Element") -> None:
        """Remove a direct child element."""
        for i, item in enumerate(self._content):
            if item is child:
                del self._content[i]
                child.parent = None
                self._children = None
                return
        raise XMLError(f"<{child.tag}> is not a child of <{self.tag}>")

    def replace_content(self, items: Iterable["Element | str"]) -> None:
        """Detach every child, then append ``items`` (former children
        included) under :meth:`append`'s checks; if one fails them, the
        element keeps the items before it."""
        content = list(items)
        for child in self.children:
            child.parent = None
        self._content = []
        self._children = None
        self.extend(content)

    def drop_text(self) -> None:
        """Remove every text node.  The child elements stay, so the
        cached child tuple and the ordinals it vouches for stay valid."""
        self._content = list(self.children)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def content(self) -> tuple["Element | str", ...]:
        """The ordered mixed content (text nodes and child elements)."""
        return tuple(self._content)

    @property
    def children(self) -> tuple["Element", ...]:
        """Direct child elements, in document order."""
        children = self._children
        if children is None:
            children = self._materialise_children()
        return children

    def _materialise_children(self) -> tuple["Element", ...]:
        """Build the child tuple and number the children among their
        same-tag siblings: the one sibling-numbering routine."""
        children = tuple(
            [item for item in self._content if isinstance(item, Element)]
        )
        if children:
            totals: dict[str, int] = {}
            for child in children:
                totals[child.tag] = totals.get(child.tag, 0) + 1
            seen: dict[str, int] = {}
            for child in children:
                tag = child.tag
                if totals[tag] > 1:
                    child._ordinal = seen[tag] = seen.get(tag, 0) + 1
                else:
                    child._ordinal = 0
        self._children = children
        return children

    @property
    def text(self) -> str:
        """Concatenation of the element's *direct* text nodes, stripped."""
        return "".join(
            item for item in self._content if isinstance(item, str)
        ).strip()

    def text_content(self) -> str:
        """Concatenation of all text in the subtree (document order)."""
        parts: list[str] = []
        for item in self._content:
            if isinstance(item, str):
                parts.append(item)
            else:
                parts.append(item.text_content())
        return "".join(parts)

    @property
    def has_text(self) -> bool:
        """True if the element has a non-empty direct text node."""
        return bool(self.text)

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child with the given tag, or None."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["Element"]:
        """All direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup with default."""
        return self.attributes.get(name, default)

    # ------------------------------------------------------------------
    # Axes
    # ------------------------------------------------------------------
    def ancestors(self) -> Iterator["Element"]:
        """Yield parent, grandparent, ... up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def iter(self) -> Iterator["Element"]:
        """Yield self and all descendant elements in document order."""
        pending = [self]
        while pending:
            node = pending.pop()
            yield node
            pending.extend(reversed(node.children))

    def descendants(self) -> Iterator["Element"]:
        """Yield all descendant elements in document order (excluding self)."""
        for child in self.children:
            yield from child.iter()

    def descendants_at_depth(self, depth: int) -> list["Element"]:
        """All descendants exactly ``depth`` levels below this element."""
        if depth < 1:
            raise XMLError("depth must be >= 1")
        level = [self]
        for _ in range(depth):
            level = [child for node in level for child in node.children]
        return level

    def breadth_first(self) -> Iterator["Element"]:
        """Yield descendants in breadth-first order (excluding self)."""
        queue: deque[Element] = deque(self.children)
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    @property
    def depth(self) -> int:
        """Number of ancestors (root element has depth 0)."""
        return sum(1 for _ in self.ancestors())

    @property
    def root(self) -> "Element":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _path_step(self) -> str:
        """``tag`` or ``tag[k]``: how the parent selects this element."""
        if self.parent._children is None:
            self.parent._materialise_children()
        return f"{self.tag}[{self._ordinal}]" if self._ordinal else self.tag

    def child_position(self, child: "Element") -> int:
        """1-based position of ``child`` among same-tag siblings."""
        if child.parent is not self:
            raise XMLError(f"<{child.tag}> is not a child of <{self.tag}>")
        if self._children is None:
            self._materialise_children()
        return child._ordinal or 1

    def absolute_path(self) -> str:
        """Absolute XPath with positional predicates, e.g. ``/doc/movie[2]/title``.

        Positions are omitted when an element is the only sibling with
        its tag, matching the compact form the paper uses in Fig. 3.
        """
        steps: list[str] = []
        node: Element = self
        while node.parent is not None:
            steps.append(node._path_step())
            node = node.parent
        steps.append(node.tag)
        return "/" + "/".join(reversed(steps))

    def generic_path(self) -> str:
        """Absolute XPath without positional predicates, e.g. ``/doc/movie/title``."""
        steps: list[str] = []
        node: Element = self
        while node is not None:
            steps.append(node.tag)
            node = node.parent  # type: ignore[assignment]
        return "/" + "/".join(reversed(steps))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "Element":
        """Deep copy of the subtree (the copy has no parent)."""
        clone = Element(self.tag, dict(self.attributes))
        for item in self._content:
            if isinstance(item, Element):
                clone.append(item.copy())
            else:
                clone.append(item)
        return clone

    def __getstate__(self) -> tuple:
        """Pickle the node without its caches; a reader rebuilds them."""
        return self.tag, self.attributes, self._content, self.parent

    def __setstate__(self, state: tuple) -> None:
        self.tag, self.attributes, self._content, self.parent = state
        self._children = None
        self._ordinal = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.generic_path()} children={len(self.children)}>"


class Document:
    """An XML document: a root element plus prolog information.

    A document read back from an index snapshot (:meth:`stored`) holds
    its record's JSON text and builds no element until a reader asks for
    ``root``, ``declaration`` or :meth:`element_at`: the first such read
    decodes the text (:func:`document_from_record`) once, under the
    document's lock, and publishes the finished tree by one assignment,
    so every reader thread sees the same elements.
    """

    __slots__ = ("_tree", "_stored", "_lock")

    def __init__(self, root: Element, declaration: Optional[dict[str, str]] = None):
        #: (root, declaration, elements in document order or None), set
        #: once complete
        self._tree: Optional[tuple] = (root, dict(declaration or {}), None)
        self._stored: Optional[tuple] = None
        self._lock = None

    @classmethod
    def stored(
        cls, text: str, anchors: list[tuple[int, str]], origin: str
    ) -> "Document":
        """A document whose tree is the JSON text of its
        :func:`document_record`, decoded on first read.

        ``anchors`` holds ``(rank, absolute path)`` pairs — the caller
        may still append to the list — that the decode checks: the
        element at each rank must have that path.  ``origin`` names the
        text's source in the :class:`XMLError` a text that does not
        decode raises.
        """
        document = cls.__new__(cls)
        document._tree = None
        document._stored = (text, anchors, origin)
        document._lock = threading.Lock()
        return document

    @property
    def root(self) -> Element:
        return (self._tree or self._decode())[0]

    @property
    def declaration(self) -> dict[str, str]:
        return (self._tree or self._decode())[1]

    @property
    def decoded(self) -> bool:
        """Whether the tree exists (always, unless :meth:`stored` and
        not read yet)."""
        return self._tree is not None

    def element_at(self, rank: int) -> Element:
        """The element at ``rank`` in document order,
        ``list(self.iter())[rank]`` (for a stored document, the order
        as decoded)."""
        tree = self._tree or self._decode()
        nodes = tree[2]
        return (list(tree[0].iter()) if nodes is None else nodes)[rank]

    def _decode(self) -> tuple:
        with self._lock:
            tree = self._tree
            if tree is None:  # the first reader: no one published yet
                text, anchors, origin = self._stored
                try:
                    import json

                    document, nodes = document_from_record(json.loads(text))
                    for rank, path in anchors:
                        found = nodes[rank].absolute_path()
                        if found != path:
                            raise XMLError(
                                f"element {rank} is at {found!r}, not {path!r}"
                            )
                except (ValueError, IndexError, XMLError) as exc:
                    raise XMLError(f"{origin} does not decode: {exc}") from exc
                tree = self._tree = (document.root, document.declaration, nodes)
                self._stored = None
        return tree

    def iter(self) -> Iterator[Element]:
        """All elements in document order."""
        return self.root.iter()

    def __reduce__(self) -> tuple:
        return type(self), (self.root, self.declaration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._tree is None:
            return "<Document stored, not decoded>"
        return f"<Document root=<{self.root.tag}>>"


def document_record(document: Document) -> list:
    """``[declaration, root]`` for ``json.dumps(…, default=element_record)``,
    which writes an element as ``[tag, attributes, content]``: text nodes
    as strings, child elements nested in place."""
    return [document.declaration, document.root]


def element_record(element: object) -> list:
    """The ``default=`` hook: the element's own dict and list, which the
    encoder reads at once — no copy of the tree is built to store it."""
    if not isinstance(element, Element):
        raise TypeError(f"{type(element).__name__} is not JSON serializable")
    return [element.tag, element.attributes, element._content]


def document_from_record(record: object) -> tuple[Document, list[Element]]:
    """Inverse of :func:`document_record`: the document and its
    elements in document order (``list(document.iter())``).

    The record's attribute dicts and content lists *become* the
    elements' — slots are assigned directly and the caches left unset,
    as ``__setstate__`` leaves them — so the caller gives the record
    up.  A record of any other shape — attribute or declaration names
    and values that are not all strings included — raises
    :class:`XMLError`.
    """
    if (
        type(record) is not list
        or len(record) != 2
        or type(record[0]) is not dict
        or not _all_strings(record[0])
    ):
        raise XMLError("document record is not [declaration, root]")
    new = Element.__new__
    root = new(Element)
    root.parent = None
    order: list[Element] = []
    pending: list[tuple[Element, object]] = [(root, record[1])]
    while pending:
        element, node = pending.pop()
        if not (
            type(node) is list and len(node) == 3
            and type(node[0]) is str and node[0]
            and type(node[1]) is dict and type(node[2]) is list
            and (not node[1] or _all_strings(node[1]))
        ):
            raise XMLError("element record is not [tag, attributes, content]")
        element.tag, element.attributes, content = node
        element._content = content
        element._children, element._ordinal = None, 0
        order.append(element)
        children = []
        for position, item in enumerate(content):
            if type(item) is not str:
                child = content[position] = new(Element)
                child.parent = element
                children.append((child, item))
        children.reverse()  # the stack pops the first child first
        pending.extend(children)
    return Document(root, record[0]), order


def _all_strings(mapping: dict) -> bool:
    """Whether every key and value of ``mapping`` is a ``str``."""
    return all(
        type(name) is str and type(value) is str for name, value in mapping.items()
    )


_PREDICATE = re.compile(r"\[[^\]]*\]?|\]")


def strip_positions(path: str) -> str:
    """Remove positional predicates from an XPath string.

    ``/doc/movie[2]/title`` becomes ``/doc/movie/title``.  Used to map OD
    tuple names (absolute XPaths) back to schema-level generic XPaths.
    """
    bare = "[" not in path and "]" not in path
    return path if bare else _PREDICATE.sub("", path)
