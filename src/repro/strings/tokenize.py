"""Tokenization and token-set similarities.

Used by the vector-space baseline ([4] in the paper) and by the
sorted-neighborhood key builder; also handy for users composing their
own classifiers on top of the framework.
"""

from __future__ import annotations

import unicodedata

_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789")


def normalize(text: str) -> str:
    """Case-fold, strip diacritics, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(stripped.casefold().split())


def tokens(text: str) -> list[str]:
    """Alphanumeric word tokens of the normalized text, in order."""
    out: list[str] = []
    current: list[str] = []
    for ch in normalize(text):
        if ch in _WORD_CHARS:
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def overlap(a: str, b: str) -> float:
    """Overlap coefficient of the token sets."""
    set_a, set_b = set(tokens(a)), set(tokens(b))
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))
