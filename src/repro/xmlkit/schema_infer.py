"""Schema inference from instance documents.

Real-world XML (the paper's FreeDB extracts, for instance) rarely ships
with an XSD.  This module reconstructs the schema information DogmatiX's
heuristics need — structure, content models, data types, cardinalities —
by a single pass over one or more instance documents:

* the structure tree is the union of observed element paths,
* ``minOccurs`` is 0 if any parent instance lacks the child, else the
  minimum observed count,
* ``maxOccurs`` is 1 if no parent instance repeats the child, else
  unbounded,
* the content model is MIXED if text and children co-occur, COMPLEX if
  only children occur, EMPTY if neither, SIMPLE otherwise,
* simple data types are sniffed per value (integer / decimal / date /
  boolean) and generalized: a path is only non-STRING if *every*
  non-empty value parses as that type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import ContentModel, DataType, Schema, SchemaElement, UNBOUNDED
from .tree import Document, Element, XMLError

_MONTHS = {
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
}


def sniff_data_type(value: str) -> DataType:
    """Best-effort simple-type classification of one text value."""
    text = value.strip()
    if not text:
        return DataType.STRING
    lowered = text.lower()
    if lowered in ("true", "false"):
        return DataType.BOOLEAN
    if _looks_like_integer(text):
        # Four-digit numbers in a plausible year range read as dates
        # (the paper types ``year`` elements as date).
        if len(text) == 4 and text.isdigit() and 1000 <= int(text) <= 2999:
            return DataType.DATE
        return DataType.INTEGER
    if _looks_like_decimal(text):
        return DataType.DECIMAL
    if _looks_like_date(text):
        return DataType.DATE
    return DataType.STRING


def _looks_like_integer(text: str) -> bool:
    body = text[1:] if text[0] in "+-" else text
    return body.isdigit()


def _looks_like_decimal(text: str) -> bool:
    body = text[1:] if text[0] in "+-" else text
    if body.count(".") != 1:
        return False
    whole, _, frac = body.partition(".")
    return (whole.isdigit() or not whole) and frac.isdigit()


def _looks_like_date(text: str) -> bool:
    for separator in ("-", "/", "."):
        if separator in text:
            parts = text.split(separator)
            if 2 <= len(parts) <= 3 and all(
                part.isdigit() and 1 <= len(part) <= 4 for part in parts
            ):
                return True
    # "14 Jun 2005" / "June 14, 2005" style
    words = text.replace(",", " ").split()
    if 2 <= len(words) <= 3 and any(word[:3].lower() in _MONTHS for word in words):
        if any(word.isdigit() for word in words):
            return True
    return False


# Generalization lattice: what a path's type becomes after seeing two
# different sniffed types.
def _merge_types(current: DataType | None, new: DataType) -> DataType:
    if current is None or current == new:
        return new
    numeric = {DataType.INTEGER, DataType.DECIMAL}
    if current in numeric and new in numeric:
        return DataType.DECIMAL
    return DataType.STRING


@dataclass
class _PathStats:
    """Accumulated observations for one generic element path."""

    has_text: bool = False
    has_children: bool = False
    instances: int = 0
    data_type: DataType | None = None
    child_order: list[str] = field(default_factory=list)
    # per-child-name: (min count over parents, max count over parents,
    #                  number of parent instances the child appeared in)
    child_counts: dict[str, list[int]] = field(default_factory=dict)


def infer_schema(documents: Document | Element | list[Document | Element]) -> Schema:
    """Infer a :class:`Schema` from one or more instance documents.

    All inputs must share the same root element name.
    """
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

    root_path = "/" + roots[0].tag
    stats: dict[str, _PathStats] = {}
    for root in roots:
        _collect(root, root_path, stats)

    schema_root = _build(root_path, roots[0].tag, stats, min_occurs=1, max_occurs=1)
    return Schema(schema_root)


def _collect(element: Element, path: str, stats: dict[str, _PathStats]) -> None:
    """Record ``element``, whose generic path is ``path``, and its subtree."""
    record = stats.get(path)
    if record is None:
        record = stats[path] = _PathStats()
    record.instances += 1
    text = element.text
    if text:
        record.has_text = True
        # STRING absorbs every later type: nothing left to sniff
        if record.data_type is not DataType.STRING:
            record.data_type = _merge_types(record.data_type, sniff_data_type(text))
    counts: dict[str, int] = {}
    for child in element.children:
        tag = child.tag
        record.has_children = True
        counts[tag] = counts.get(tag, 0) + 1
        if tag not in record.child_order:
            record.child_order.append(tag)
        _collect(child, f"{path}/{tag}", stats)
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


def _build(
    path: str,
    name: str,
    stats: dict[str, _PathStats],
    min_occurs: int,
    max_occurs: int | None,
) -> SchemaElement:
    record = stats[path]
    if record.has_text and record.has_children:
        content, data_type = ContentModel.MIXED, record.data_type or DataType.STRING
    elif record.has_children:
        content, data_type = ContentModel.COMPLEX, DataType.NONE
    elif record.has_text:
        content, data_type = ContentModel.SIMPLE, record.data_type or DataType.STRING
    else:
        content, data_type = ContentModel.EMPTY, DataType.NONE
    element = SchemaElement(
        name,
        data_type=data_type,
        content_model=content,
        min_occurs=min_occurs,
        max_occurs=max_occurs,
    )
    for child_name in record.child_order:
        low, high, _ = record.child_counts[child_name]
        element.add_child(
            _build(
                f"{path}/{child_name}",
                child_name,
                stats,
                min_occurs=min(low, 1),
                max_occurs=1 if high <= 1 else UNBOUNDED,
            )
        )
    return element
