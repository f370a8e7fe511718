"""Serializer: tree back to XML text.

Compact output round-trips exactly for trees whose text XML 1.0 allows:
a carriage return, and a tab or newline in an attribute value, are
written as character references, since a parser normalizes them.
"""

from __future__ import annotations

from .tree import Document, Element

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "\t": "&#9;", "\n": "&#10;"}


def escape_text(value: str) -> str:
    """Escape character data."""
    return "".join(_TEXT_ESCAPES.get(ch, ch) for ch in value)


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return "".join(_ATTR_ESCAPES.get(ch, ch) for ch in value)


def serialize(
    node: Document | Element,
    indent: str | None = "  ",
    declaration: bool = True,
) -> str:
    """Serialize a document or element subtree to a string.

    With ``indent=None`` the output is compact (no added whitespace) and
    round-trips exactly through :func:`repro.xmlkit.parser.parse`.
    Pretty-printing only indents elements without mixed content, so it
    also round-trips modulo ignorable whitespace.
    """
    if isinstance(node, Document):
        parts: list[str] = []
        if declaration:
            decl_attrs = node.declaration or {"version": "1.0", "encoding": "UTF-8"}
            attrs = "".join(
                f' {name}="{escape_attribute(value)}"'
                for name, value in decl_attrs.items()
            )
            parts.append(f"<?xml{attrs}?>")
            parts.append("\n")
        _serialize_element(node.root, parts, indent, 0)
        parts.append("\n")
        return "".join(parts)
    parts = []
    _serialize_element(node, parts, indent, 0)
    return "".join(parts)


def _serialize_element(
    element: Element, out: list[str], indent: str | None, level: int
) -> None:
    pad = indent * level if indent else ""
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in element.attributes.items()
    )
    content = element.content
    if not content:
        out.append(f"{pad}<{element.tag}{attrs}/>")
        return
    has_child_elements = any(isinstance(item, Element) for item in content)
    has_real_text = any(
        isinstance(item, str) and item.strip() for item in content
    )
    if indent and has_child_elements and not has_real_text:
        # Structure-only content: pretty print children on their own lines.
        out.append(f"{pad}<{element.tag}{attrs}>")
        for item in content:
            if isinstance(item, Element):
                out.append("\n")
                _serialize_element(item, out, indent, level + 1)
        out.append(f"\n{pad}</{element.tag}>")
    else:
        # Simple or mixed content: serialize verbatim on one line.
        out.append(f"{pad}<{element.tag}{attrs}>")
        for item in content:
            if isinstance(item, Element):
                _serialize_element(item, out, None, 0)
            else:
                out.append(escape_text(item))
        out.append(f"</{element.tag}>")
