"""Three pieces of the cold path as they stood before PR 20, kept as oracles.

``parse`` built the tree and then walked it again to drop indentation
(``_strip_ignorable_whitespace``); the shipped parser decides that when
an element closes.  ``_collect`` re-derived ``generic_path()`` per
element, constructed a ``_PathStats`` per element and sniffed every
value; the shipped one extends the parent's path, looks the record up
first and stops sniffing a path that is already ``STRING``.
``strip_positions`` was a character loop; the shipped one is a compiled
pattern.  All three are verbatim apart from this paragraph, from
importing what did not change (``_PathStats``, ``_build``,
``_merge_types``, ``sniff_data_type``) from ``repro.xmlkit``, and from
reading the tokens of :mod:`reference.char_tokenizer` — the token
stream the shipped tokenizer produced until expat replaced it — by
field name.
``tests/test_xmlkit_parser.py``, ``tests/test_xmlkit_schema.py`` and
``tests/test_xmlkit_tree.py`` hold the shipped functions to them;
``tree_shape`` is how they (and the snapshot tests) compare two trees.
"""

from __future__ import annotations

from repro.xmlkit import Document, Element, Schema, XMLError, sniff_data_type
from repro.xmlkit.parser import decode_xml_bytes
from repro.xmlkit.schema_infer import _PathStats, _build, _merge_types

from reference.char_tokenizer import Tokenizer, TokenType


def tree_shape(element: Element) -> tuple:
    """Everything a node holds, nested: comparable across two trees."""
    return (
        element.tag,
        tuple(element.attributes.items()),
        tuple(
            item if isinstance(item, str) else tree_shape(item)
            for item in element.content
        ),
    )


def parse(text: str | bytes) -> Document:
    """Parse an XML string (or raw bytes) into a :class:`Document`."""
    if isinstance(text, (bytes, bytearray)):
        text = decode_xml_bytes(bytes(text))
    declaration: dict[str, str] = {}
    root: Element | None = None
    stack: list[Element] = []

    start_tag, end_tag, text_type = (
        TokenType.START_TAG, TokenType.END_TAG, TokenType.TEXT
    )
    for token in Tokenizer(text).tokens():
        kind, value, attributes = token.type, token.value, token.attributes
        offset = token.offset
        if kind is start_tag or kind is TokenType.EMPTY_TAG:
            element = Element(value, dict(attributes))
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            else:
                raise XMLError(
                    f"multiple root elements (second <{value}> at offset {offset})"
                )
            if kind is start_tag:
                stack.append(element)
        elif kind is text_type:
            if not stack:
                if value.strip():
                    raise XMLError(f"text outside the root element at offset {offset}")
                continue
            if value:
                stack[-1].append(value)
        elif kind is end_tag:
            if not stack:
                raise XMLError(f"unexpected closing tag </{value}> at offset {offset}")
            open_element = stack.pop()
            if open_element.tag != value:
                raise XMLError(
                    f"mismatched tags: <{open_element.tag}> closed by "
                    f"</{value}> at offset {offset}"
                )
        elif kind is TokenType.DECLARATION:
            if root is not None or stack:
                raise XMLError("XML declaration must precede the root element")
            declaration = dict(attributes)
        # comments, processing instructions and the DOCTYPE carry no data

    if stack:
        raise XMLError(f"unclosed element <{stack[-1].tag}> at end of input")
    if root is None:
        raise XMLError("document has no root element")
    _strip_ignorable_whitespace(root)
    return Document(root, declaration)


def _strip_ignorable_whitespace(element: Element) -> None:
    """Drop whitespace-only text nodes in elements that have children.

    Pretty-printed documents put indentation between child elements; that
    indentation is not data.  Elements without child elements keep their
    text verbatim.
    """
    for node in element.iter():
        children = node.children
        if children:
            content = node.content
            if len(content) > len(children) and not any(
                isinstance(item, str) and item.strip() for item in content
            ):
                node.replace_content(children)


def infer_schema(documents: Document | Element | list[Document | Element]) -> Schema:
    """Infer a :class:`Schema` from one or more instance documents."""
    if not isinstance(documents, list):
        documents = [documents]
    if not documents:
        raise XMLError("cannot infer a schema from zero documents")
    roots = [
        item.root if isinstance(item, Document) else item for item in documents
    ]
    root_names = {root.tag for root in roots}
    if len(root_names) != 1:
        raise XMLError(f"documents disagree on the root element: {sorted(root_names)}")

    stats: dict[str, _PathStats] = {}
    for root in roots:
        _collect(root, stats)

    root_path = "/" + roots[0].tag
    schema_root = _build(root_path, roots[0].tag, stats, min_occurs=1, max_occurs=1)
    return Schema(schema_root)


def _collect(element: Element, stats: dict[str, _PathStats]) -> None:
    path = element.generic_path()
    record = stats.setdefault(path, _PathStats())
    record.instances += 1
    if element.text:
        record.has_text = True
        record.data_type = _merge_types(record.data_type, sniff_data_type(element.text))
    counts: dict[str, int] = {}
    for child in element.children:
        record.has_children = True
        counts[child.tag] = counts.get(child.tag, 0) + 1
        if child.tag not in record.child_order:
            record.child_order.append(child.tag)
        _collect(child, stats)
    for name in record.child_order:
        observed = counts.get(name, 0)
        entry = record.child_counts.get(name)
        if entry is None:
            # A child first seen now, after earlier parent instances that
            # lacked it, is optional (min 0).
            seed_min = 0 if record.instances > 1 else observed
            entry = record.child_counts[name] = [seed_min, observed, 0]
        entry[0] = min(entry[0], observed)
        entry[1] = max(entry[1], observed)
        if observed:
            entry[2] += observed


def strip_positions(path: str) -> str:
    """Remove positional predicates from an XPath string."""
    out: list[str] = []
    skipping = False
    for ch in path:
        if ch == "[":
            skipping = True
        elif ch == "]":
            skipping = False
        elif not skipping:
            out.append(ch)
    return "".join(out)
