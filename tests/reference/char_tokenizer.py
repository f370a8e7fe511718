"""The character-loop XML tokenizer, kept as the oracle.

This is ``repro/xmlkit/tokens.py`` as it stood before a regex scanner
replaced it, verbatim apart from this paragraph and the ``XMLError``
import; the regex scanner was held to the same token stream, error
text and offset until the shipped parser moved to expat.
:func:`reference.xml_cold_path.parse` builds its trees from these
tokens.

Tokenizer for XML documents.

Splits raw XML text into a flat token stream consumed by
:mod:`repro.xmlkit.parser`.  Supported constructs: element start/end/empty
tags with attributes, character data, CDATA sections, comments, processing
instructions, the XML declaration, a DOCTYPE line (skipped, internal
subsets are not supported), and the five predefined entities plus numeric
character references.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator

from repro.xmlkit.tree import XMLError


class TokenType(Enum):
    START_TAG = auto()       # <tag attr="v">
    END_TAG = auto()         # </tag>
    EMPTY_TAG = auto()       # <tag/>
    TEXT = auto()            # character data (entities resolved)
    COMMENT = auto()         # <!-- ... -->
    PI = auto()              # <?target ...?>
    DECLARATION = auto()     # <?xml version="1.0"?>
    DOCTYPE = auto()         # <!DOCTYPE ...>


@dataclass(frozen=True)
class Token:
    """One lexical unit of an XML document."""

    type: TokenType
    value: str                      # tag name, text, or raw body
    attributes: tuple[tuple[str, str], ...] = ()
    offset: int = 0                 # character offset in the input


_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")
_WHITESPACE = set(" \t\r\n")


def resolve_entities(text: str, offset: int = 0) -> str:
    """Replace entity and character references with their values."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XMLError(f"unterminated entity reference at offset {offset + i}")
        name = text[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                out.append(chr(int(name[2:], 16)))
            except ValueError as exc:
                raise XMLError(f"bad character reference &{name}; at {offset + i}") from exc
        elif name.startswith("#"):
            try:
                out.append(chr(int(name[1:])))
            except ValueError as exc:
                raise XMLError(f"bad character reference &{name}; at {offset + i}") from exc
        elif name in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[name])
        else:
            raise XMLError(f"unknown entity &{name}; at offset {offset + i}")
        i = end + 1
    return "".join(out)


class Tokenizer:
    """Single-pass XML tokenizer."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._n = len(text)

    def tokens(self) -> Iterator[Token]:
        """Yield the document's tokens in order."""
        while self._pos < self._n:
            if self._text[self._pos] == "<":
                yield self._read_markup()
            else:
                yield self._read_text()

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> XMLError:
        return XMLError(f"{message} at offset {self._pos}")

    def _read_text(self) -> Token:
        start = self._pos
        end = self._text.find("<", start)
        if end == -1:
            end = self._n
        raw = self._text[start:end]
        self._pos = end
        return Token(TokenType.TEXT, resolve_entities(raw, start), offset=start)

    def _read_markup(self) -> Token:
        text = self._text
        start = self._pos
        if text.startswith("<!--", start):
            return self._read_delimited("<!--", "-->", TokenType.COMMENT)
        if text.startswith("<![CDATA[", start):
            token = self._read_delimited("<![CDATA[", "]]>", TokenType.TEXT)
            return Token(TokenType.TEXT, token.value, offset=token.offset)
        if text.startswith("<!DOCTYPE", start):
            return self._read_doctype()
        if text.startswith("<?", start):
            return self._read_pi()
        if text.startswith("</", start):
            return self._read_end_tag()
        return self._read_start_tag()

    def _read_delimited(self, opener: str, closer: str, kind: TokenType) -> Token:
        start = self._pos
        body_start = start + len(opener)
        end = self._text.find(closer, body_start)
        if end == -1:
            raise self._fail(f"unterminated {opener!r} section")
        self._pos = end + len(closer)
        return Token(kind, self._text[body_start:end], offset=start)

    def _read_doctype(self) -> Token:
        start = self._pos
        depth = 0
        i = start
        while i < self._n:
            ch = self._text[i]
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
                if depth == 0:
                    self._pos = i + 1
                    return Token(
                        TokenType.DOCTYPE, self._text[start:i + 1], offset=start
                    )
            i += 1
        raise self._fail("unterminated DOCTYPE")

    def _read_pi(self) -> Token:
        start = self._pos
        end = self._text.find("?>", start + 2)
        if end == -1:
            raise self._fail("unterminated processing instruction")
        body = self._text[start + 2 : end]
        self._pos = end + 2
        if body.startswith("xml") and (len(body) == 3 or body[3] in " \t\r\n"):
            attrs = tuple(_parse_attributes(body[3:], start))
            return Token(TokenType.DECLARATION, "xml", attrs, offset=start)
        return Token(TokenType.PI, body, offset=start)

    def _read_end_tag(self) -> Token:
        start = self._pos
        end = self._text.find(">", start + 2)
        if end == -1:
            raise self._fail("unterminated end tag")
        name = self._text[start + 2 : end].strip()
        if not _is_name(name):
            raise self._fail(f"malformed end tag </{name}>")
        self._pos = end + 1
        return Token(TokenType.END_TAG, name, offset=start)

    def _read_start_tag(self) -> Token:
        start = self._pos
        end = self._text.find(">", start + 1)
        if end == -1:
            raise self._fail("unterminated start tag")
        body = self._text[start + 1 : end]
        empty = body.endswith("/")
        if empty:
            body = body[:-1]
        body = body.strip()
        if not body:
            raise self._fail("empty tag name")
        # Split the name from the attribute string.
        i = 0
        while i < len(body) and body[i] not in _WHITESPACE:
            i += 1
        name = body[:i]
        if not _is_name(name):
            raise self._fail(f"malformed tag name {name!r}")
        attrs = tuple(_parse_attributes(body[i:], start))
        self._pos = end + 1
        kind = TokenType.EMPTY_TAG if empty else TokenType.START_TAG
        return Token(kind, name, attrs, offset=start)


def _is_name(name: str) -> bool:
    return bool(name) and name[0] in _NAME_START and all(
        ch in _NAME_CHARS for ch in name
    )


def _parse_attributes(body: str, offset: int) -> list[tuple[str, str]]:
    """Parse ``name="value"`` pairs from a tag body remainder."""
    attrs: list[tuple[str, str]] = []
    seen: set[str] = set()
    i = 0
    n = len(body)
    while i < n:
        while i < n and body[i] in _WHITESPACE:
            i += 1
        if i >= n:
            break
        name_start = i
        while i < n and body[i] not in _WHITESPACE and body[i] != "=":
            i += 1
        name = body[name_start:i]
        if not _is_name(name):
            raise XMLError(f"malformed attribute name {name!r} near offset {offset}")
        while i < n and body[i] in _WHITESPACE:
            i += 1
        if i >= n or body[i] != "=":
            raise XMLError(f"attribute {name!r} missing '=' near offset {offset}")
        i += 1
        while i < n and body[i] in _WHITESPACE:
            i += 1
        if i >= n or body[i] not in "\"'":
            raise XMLError(f"attribute {name!r} value must be quoted near offset {offset}")
        quote = body[i]
        i += 1
        value_start = i
        end = body.find(quote, i)
        if end == -1:
            raise XMLError(f"unterminated value for attribute {name!r} near offset {offset}")
        value = resolve_entities(body[value_start:end], offset)
        i = end + 1
        if name in seen:
            raise XMLError(f"duplicate attribute {name!r} near offset {offset}")
        seen.add(name)
        attrs.append((name, value))
    return attrs
