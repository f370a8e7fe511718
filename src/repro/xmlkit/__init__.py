"""xmlkit: self-contained XML substrate.

Parser, tree model, serializer, XPath-subset engine, and XML Schema
(XSD-subset) model with parsing and inference.  Everything DogmatiX
needs from an XML stack, with no third-party dependencies.

The XQuery-subset engine is exported lazily: no detection path runs it,
so ``XQuery``, ``XQueryError`` and ``execute_xquery`` import
:mod:`repro.xmlkit.xquery` on first access.
"""

from .parser import decode_xml_bytes, parse, parse_file
from .schema import (
    ContentModel,
    DataType,
    Schema,
    SchemaElement,
    UNBOUNDED,
)
from .schema_infer import infer_schema, sniff_data_type
from .schema_parser import parse_schema, parse_schema_file
from .serialize import serialize
from .tree import Document, Element, XMLError, strip_positions
from .tree import document_from_record, document_record, element_record
from .xpath import XPath, XPathSyntaxError, compile_path, join, select

__all__ = [
    "ContentModel",
    "DataType",
    "Document",
    "Element",
    "Schema",
    "SchemaElement",
    "UNBOUNDED",
    "XMLError",
    "XQuery",
    "XQueryError",
    "XPath",
    "XPathSyntaxError",
    "compile_path",
    "decode_xml_bytes",
    "document_from_record",
    "document_record",
    "element_record",
    "execute_xquery",
    "infer_schema",
    "join",
    "parse",
    "parse_file",
    "parse_schema",
    "parse_schema_file",
    "select",
    "serialize",
    "sniff_data_type",
    "strip_positions",
]

def __getattr__(name: str):
    if name in ("XQuery", "XQueryError", "execute_xquery"):
        from . import xquery

        return getattr(xquery, "execute" if name == "execute_xquery" else name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
