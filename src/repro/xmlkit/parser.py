"""XML parser: token stream to :class:`~repro.xmlkit.tree.Document`.

A small recursive-descent (actually stack-based) well-formedness-checking
parser.  Whitespace-only text between elements is dropped unless the
element already carries non-whitespace text (mixed content keeps its
spacing); leading/trailing whitespace of text nodes is preserved in the
tree and normalized by accessors.

Encoding handling
-----------------
:func:`parse` accepts ``str`` or ``bytes``; :func:`parse_file` accepts
any path-like (``str``, ``pathlib.Path``, ...) and always reads bytes.
Bytes are decoded in three steps, mirroring XML's appendix-F detection:

1. a Unicode byte-order mark wins (UTF-8, UTF-16 LE/BE, UTF-32 LE/BE)
   and is stripped;
2. otherwise the ``encoding`` pseudo-attribute of the XML declaration,
   sniffed from the ASCII-compatible prefix, is honored;
3. otherwise the input is decoded as UTF-8 (the XML default).

A BOM that contradicts the declared encoding follows the BOM (the
declaration is only trusted when no BOM is present); an unknown
declared encoding or undecodable bytes raise :class:`XMLError`.

Decoded byte input additionally gets XML 1.0 section 2.11 end-of-line
normalization (``\\r\\n`` and lone ``\\r`` become ``\\n``) — the same
treatment text-mode file reading used to apply, so CRLF corpora parse
to identical trees whether passed as ``str``-with-``\\n``, bytes, or a
file path.  ``str`` input is assumed already normalized by whatever
produced it.
"""

from __future__ import annotations

import codecs
import os
import re

from .tokens import Tokenizer, TokenType
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
    """Parse an XML string (or raw bytes) into a :class:`Document`.

    ``bytes`` input is decoded first — BOM, then the declaration's
    ``encoding=``, else UTF-8 (see the module docstring).  Raises
    :class:`XMLError` on malformed input (mismatched tags, multiple
    roots, trailing content, bad entities, undecodable bytes, ...).
    """
    if isinstance(text, (bytes, bytearray)):
        text = decode_xml_bytes(bytes(text))
    declaration: dict[str, str] = {}
    root: Element | None = None
    stack: list[Element] = []
    # Per open element, what its content holds so far: a child element,
    # a whitespace-only text node, a text node with anything else in it.
    seen: list[int] = []
    child, blank, real = 1, 2, 4

    start_tag, end_tag, text_type = (
        TokenType.START_TAG, TokenType.END_TAG, TokenType.TEXT
    )
    for kind, value, attributes, offset in Tokenizer(text).tokens():
        if kind is start_tag or kind is TokenType.EMPTY_TAG:
            element = Element(value, dict(attributes))
            if stack:
                stack[-1].append(element)
                seen[-1] |= child
            elif root is None:
                root = element
            else:
                raise XMLError(
                    f"multiple root elements (second <{value}> at offset {offset})"
                )
            if kind is start_tag:
                stack.append(element)
                seen.append(0)
        elif kind is text_type:
            if not stack:
                if value.strip():
                    raise XMLError(f"text outside the root element at offset {offset}")
                continue
            if value:
                stack[-1].append(value)
                seen[-1] |= blank if value.isspace() else real
        elif kind is end_tag:
            if not stack:
                raise XMLError(f"unexpected closing tag </{value}> at offset {offset}")
            open_element = stack.pop()
            if open_element.tag != value:
                raise XMLError(
                    f"mismatched tags: <{open_element.tag}> closed by "
                    f"</{value}> at offset {offset}"
                )
            # Indentation between child elements is not data; elements
            # without children or with real text keep theirs verbatim.
            if seen.pop() == child | blank:
                open_element.drop_text()
        elif kind is TokenType.DECLARATION:
            if root is not None or stack:
                raise XMLError("XML declaration must precede the root element")
            declaration = dict(attributes)
        # comments, processing instructions and the DOCTYPE carry no data

    if stack:
        raise XMLError(f"unclosed element <{stack[-1].tag}> at end of input")
    if root is None:
        raise XMLError("document has no root element")
    return Document(root, declaration)


def parse_file(path: str | os.PathLike) -> Document:
    """Parse an XML file given as any path-like (``str``, ``Path``...).

    The file is read as bytes and decoded like :func:`parse`: BOM
    first, then the XML declaration's ``encoding=``, else UTF-8 — so
    declared non-UTF-8 documents parse without caller-side decoding.
    """
    with open(path, "rb") as handle:
        return parse(handle.read())
