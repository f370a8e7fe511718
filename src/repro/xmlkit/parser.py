"""XML parser: the standard library's expat builds a
:class:`~repro.xmlkit.tree.Document`.

Expat checks well-formedness (XML 1.0) and normalizes line ends and
attribute whitespace.  Whitespace-only text between child elements is
dropped when the element closes; mixed content keeps its text verbatim.
A comment, a processing instruction and each CDATA section end the text
node before them (a CDATA section is a text node of its own); entity and
character references stay inside their text node.

*Entities.*  Predefined and internally declared entities and character
references expand, under expat's amplification limit (a billion-laughs
document raises :class:`XMLError`).  External entities are refused,
never read, and so is a reference only an external DTD subset could
declare; DTD attribute defaults are not added.

*Encodings.*  Bytes (and every :func:`parse_file`) are decoded by
:func:`decode_xml_bytes`: a byte-order mark wins and is stripped, else
the declared ``encoding=``, else UTF-8.  Expat then reads the ``str``.
"""

from __future__ import annotations

import codecs
import os
import re
from xml.parsers import expat

from .tree import Document, Element, XMLError

#: BOM -> codec, longest first so UTF-32 LE wins over its UTF-16 prefix.
_BOMS: tuple[tuple[bytes, str], ...] = (
    (codecs.BOM_UTF32_BE, "utf-32-be"),
    (codecs.BOM_UTF32_LE, "utf-32-le"),
    (codecs.BOM_UTF8, "utf-8"),
    (codecs.BOM_UTF16_BE, "utf-16-be"),
    (codecs.BOM_UTF16_LE, "utf-16-le"),
)

_DECLARED_ENCODING = re.compile(
    rb"<\?xml[^>]*?encoding\s*=\s*[\"']([A-Za-z][A-Za-z0-9._-]*)[\"']"
)


def decode_xml_bytes(data: bytes) -> str:
    """Decode raw XML bytes per the module's encoding rules."""
    for bom, codec in _BOMS:
        if data.startswith(bom):
            encoding = codec
            data = data[len(bom):]
            break
    else:
        declared = _DECLARED_ENCODING.match(data[:256].lstrip())
        encoding = declared.group(1).decode("ascii") if declared else "utf-8"
    try:
        text = data.decode(encoding)
    except LookupError:
        raise XMLError(f"unknown XML encoding {encoding!r}") from None
    except UnicodeDecodeError as exc:
        raise XMLError(f"cannot decode XML input as {encoding}: {exc}") from None
    # XML 1.0 §2.11 end-of-line handling (matches text-mode reading).
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse(text: str | bytes) -> Document:
    """Parse an XML string (or raw bytes) into a :class:`Document`.  Every
    failure is an :class:`XMLError`; a parse error names line and column."""
    if isinstance(text, (bytes, bytearray)):
        text = decode_xml_bytes(bytes(text))
    declaration: dict[str, str] = {}
    roots: list[Element] = []
    stack: list[Element] = []
    # Per open element, what its content holds so far: a child element,
    # a whitespace-only text node, a text node with anything else in it.
    seen: list[int] = []
    child, blank, real = 1, 2, 4
    # The open text node, which expat may hand over in several runs.
    pieces: list[str] = []

    def end_text(*_event) -> None:
        if pieces:
            value = "".join(pieces)
            pieces.clear()
            stack[-1].append(value)
            seen[-1] |= blank if value.isspace() else real

    def start(tag: str, attributes: dict[str, str]) -> None:
        end_text()
        element = Element(tag, attributes)
        if stack:
            stack[-1].append(element)
            seen[-1] |= child
        else:
            roots.append(element)
        stack.append(element)
        seen.append(0)

    def end(_tag: str) -> None:
        end_text()
        element = stack.pop()
        # Indentation between child elements is not data; elements
        # without children or with real text keep theirs verbatim.
        if seen.pop() == child | blank:
            element.drop_text()

    def xml_declaration(version: str, encoding: str | None, standalone: int) -> None:
        declaration["version"] = version
        if encoding is not None:
            declaration["encoding"] = encoding
        if standalone != -1:
            declaration["standalone"] = "yes" if standalone else "no"

    def undefined_entity(name: str, _is_parameter_entity: bool) -> None:
        raise XMLError(f"undefined entity &{name};")

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.specified_attributes = True  # no defaults from an ATTLIST
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pieces.append
    parser.CommentHandler = end_text
    parser.ProcessingInstructionHandler = end_text
    parser.StartCdataSectionHandler = end_text
    parser.EndCdataSectionHandler = end_text
    parser.XmlDeclHandler = xml_declaration
    parser.SkippedEntityHandler = undefined_entity
    parser.ExternalEntityRefHandler = lambda *_entity: 0  # refused, never read
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise _located(expat.ErrorString(exc.code), exc.lineno, exc.offset) from None
    except XMLError as exc:
        raise _located(
            str(exc), parser.ErrorLineNumber, parser.ErrorColumnNumber
        ) from None
    except UnicodeEncodeError as exc:  # a lone surrogate in ``str`` input
        lines = text[: exc.start].split("\n")
        raise _located(exc.reason, len(lines), len(lines[-1])) from None
    return Document(roots[0], declaration)


def _located(message: str, line: int, column: int) -> XMLError:
    return XMLError(f"{message} at line {line}, column {column}")


def parse_file(path: str | os.PathLike) -> Document:
    """Parse an XML file, read as bytes, given as any path-like.  An
    :class:`XMLError` names the file first."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return parse(data)
    except XMLError as exc:
        raise XMLError(f"{os.fspath(path)}: {exc}") from None
