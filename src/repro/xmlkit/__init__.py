"""xmlkit: self-contained XML substrate.

Parser, tree model, serializer, XPath-subset engine, and XML Schema
(XSD-subset) model with parsing and inference.  Everything DogmatiX
needs from an XML stack, with no third-party dependencies.

Every name is imported from its submodule on first access (see
:mod:`repro._lazy`): a warm open never loads the serializer or the
schema parser, which no detection path runs.  Section 3.3's XQueries
are not rendered as text: candidate and description definitions are
evaluated directly on the XPath engine.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "decode_xml_bytes": "parser",
        "parse": "parser",
        "parse_file": "parser",
        "ContentModel": "schema",
        "DataType": "schema",
        "Schema": "schema",
        "SchemaElement": "schema",
        "UNBOUNDED": "schema",
        "infer_schema": "schema_infer",
        "sniff_data_type": "schema_infer",
        "parse_schema": "schema_parser",
        "parse_schema_file": "schema_parser",
        "serialize": "serialize",
        "Document": "tree",
        "Element": "tree",
        "XMLError": "tree",
        "document_from_record": "tree",
        "document_record": "tree",
        "element_record": "tree",
        "strip_positions": "tree",
        "XPath": "xpath",
        "XPathSyntaxError": "xpath",
        "compile_path": "xpath",
        "join": "xpath",
        "select": "xpath",
    },
)
