"""Parser for a practical subset of W3C XML Schema (XSD).

Supports the constructs the paper's schemas (Fig. 2 and the dataset
schemas) use: ``xs:element`` with inline ``xs:complexType`` containing
``xs:sequence`` / ``xs:all`` / ``xs:choice`` of further elements,
``type="xs:..."`` simple types, ``minOccurs`` / ``maxOccurs`` /
``nillable``, ``mixed="true"`` content, and named top-level complex
types referenced via ``type="..."``.  Attributes, groups, extensions,
and imports are out of scope and raise.
"""

from __future__ import annotations

from .parser import parse, parse_file
from .schema import (
    XSD_TYPE_MAP,
    ContentModel,
    DataType,
    Schema,
    SchemaElement,
    UNBOUNDED,
)
from .tree import Document, Element, XMLError

_STRUCTURAL = {"sequence", "all", "choice"}
_IGNORED = {"annotation", "documentation", "attribute", "key", "unique", "keyref"}


def parse_schema(text: str) -> Schema:
    """Parse an XSD document string into a :class:`Schema`."""
    return schema_from_document(parse(text))


def parse_schema_file(path: str) -> Schema:
    """Parse an XSD file, read and decoded as :func:`parse_file` does."""
    return schema_from_document(parse_file(path))


def schema_from_document(document: Document) -> Schema:
    root = document.root
    if _local(root.tag) != "schema":
        raise XMLError(f"expected an xs:schema root, got <{root.tag}>")
    named_types = {
        child.get("name"): child
        for child in root.children
        if _local(child.tag) == "complexType" and child.get("name")
    }
    top_elements = [
        child for child in root.children if _local(child.tag) == "element"
    ]
    if len(top_elements) != 1:
        raise XMLError(
            f"expected exactly one top-level xs:element, found {len(top_elements)}"
        )
    schema_root = _build_element(top_elements[0], named_types, top_level=True)
    return Schema(schema_root)


def _local(tag: str) -> str:
    """Local name of a possibly prefixed tag."""
    return tag.rsplit(":", 1)[-1]


def _parse_occurs(element: Element, top_level: bool) -> tuple[int, int | None]:
    if top_level:
        return 1, 1
    min_raw = element.get("minOccurs", "1")
    max_raw = element.get("maxOccurs", "1")
    try:
        min_occurs = int(min_raw)
    except ValueError:
        raise XMLError(f"bad minOccurs {min_raw!r} on <{element.get('name')}>") from None
    if max_raw == "unbounded":
        return min_occurs, UNBOUNDED
    try:
        max_occurs: int | None = int(max_raw)
    except ValueError:
        raise XMLError(f"bad maxOccurs {max_raw!r} on <{element.get('name')}>") from None
    return min_occurs, max_occurs


def _resolve_simple_type(type_name: str) -> DataType:
    local = _local(type_name)
    if local in XSD_TYPE_MAP:
        return XSD_TYPE_MAP[local]
    raise XMLError(f"unsupported simple type {type_name!r}")


def _build_element(
    node: Element,
    named_types: dict[str | None, Element],
    top_level: bool = False,
) -> SchemaElement:
    name = node.get("name")
    if not name:
        raise XMLError("xs:element requires a name attribute")
    min_occurs, max_occurs = _parse_occurs(node, top_level)
    nillable = node.get("nillable", "false") == "true"

    type_ref = node.get("type")
    inline_complex = None
    for child in node.children:
        local = _local(child.tag)
        if local == "complexType":
            inline_complex = child
        elif local == "simpleType":
            type_ref = _extract_restriction_base(child)
        elif local in _IGNORED:
            continue
        else:
            raise XMLError(f"unsupported construct <{child.tag}> in element {name!r}")

    if inline_complex is not None and type_ref is not None:
        raise XMLError(f"element {name!r} has both a type reference and inline type")

    if inline_complex is None and type_ref is not None and type_ref in named_types:
        inline_complex = named_types[type_ref]
        type_ref = None

    if inline_complex is not None:
        mixed = inline_complex.get("mixed", "false") == "true"
        element = SchemaElement(
            name,
            data_type=DataType.STRING if mixed else DataType.NONE,
            content_model=ContentModel.MIXED if mixed else ContentModel.COMPLEX,
            min_occurs=min_occurs,
            max_occurs=max_occurs,
            nillable=nillable,
        )
        for child_decl in _iter_child_declarations(inline_complex, name):
            element.add_child(_build_element(child_decl, named_types))
        if not element.children and not mixed:
            element.content_model = ContentModel.EMPTY
            element.data_type = DataType.NONE
        return element

    data_type = _resolve_simple_type(type_ref) if type_ref else DataType.STRING
    return SchemaElement(
        name,
        data_type=data_type,
        content_model=ContentModel.SIMPLE,
        min_occurs=min_occurs,
        max_occurs=max_occurs,
        nillable=nillable,
    )


def _iter_child_declarations(complex_type: Element, owner: str) -> list[Element]:
    declarations: list[Element] = []
    for child in complex_type.children:
        local = _local(child.tag)
        if local in _STRUCTURAL:
            for grandchild in child.children:
                inner = _local(grandchild.tag)
                if inner == "element":
                    declarations.append(grandchild)
                elif inner in _STRUCTURAL:
                    declarations.extend(_iter_child_declarations_structural(grandchild))
                elif inner in _IGNORED:
                    continue
                else:
                    raise XMLError(
                        f"unsupported construct <{grandchild.tag}> inside "
                        f"<{child.tag}> of {owner!r}"
                    )
        elif local in _IGNORED:
            continue
        else:
            raise XMLError(
                f"unsupported construct <{child.tag}> in complexType of {owner!r}"
            )
    return declarations


def _iter_child_declarations_structural(group: Element) -> list[Element]:
    declarations: list[Element] = []
    for child in group.children:
        local = _local(child.tag)
        if local == "element":
            declarations.append(child)
        elif local in _STRUCTURAL:
            declarations.extend(_iter_child_declarations_structural(child))
        elif local in _IGNORED:
            continue
        else:
            raise XMLError(f"unsupported construct <{child.tag}> in model group")
    return declarations


def _extract_restriction_base(simple_type: Element) -> str:
    for child in simple_type.children:
        if _local(child.tag) == "restriction":
            base = child.get("base")
            if base:
                return base
    raise XMLError("xs:simpleType without a restriction base")
