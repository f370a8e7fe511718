"""The gram state the q-gram index reads through.

:class:`DictValueState` holds the lookup structures around an index's
value list: value ids, each value's gram multiset, the length classes
and the gram buckets, read through ``find``, ``counter``,
``length_classes`` and the exact multiset count filter as
``query_pairs`` + ``accumulate`` (every value's overlap in one walk of
the gram buckets).  The index over it is
:class:`~repro.strings.qgram.QGramIndex`.

The module also holds :func:`qgrams` and :func:`require_qgram_strategy`,
the one check behind every ``strategy`` / ``similarity_strategy`` name
the library still accepts.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

#: Padding character outside the XML character-data alphabet we generate.
_PAD = "\x00"


def qgrams(value: str, q: int = 2) -> list[str]:
    """Padded q-grams of a string (``q - 1`` pad chars on each side)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    padded = _PAD * (q - 1) + value + _PAD * (q - 1)
    return [padded[i : i + q] for i in range(len(padded) - q + 1)]


def require_qgram_strategy(strategy: object) -> None:
    """Raise ``ValueError`` unless ``strategy`` is ``"qgram"``.

    The choice of similar-value index was removed; the ``strategy`` /
    ``similarity_strategy`` names that remain accept only the one index.
    """
    if strategy != "qgram":
        raise ValueError(
            f"similarity strategy {strategy!r} is not available: the "
            "strategy choice was removed and 'qgram' is the only value"
        )


class DictValueState:
    """Writable gram state: value ids, gram multisets, length classes
    and gram buckets, as dicts.

    Value ids are insertion ranks, so every id list below is ascending
    by construction.  :meth:`register` is the one writer; it runs
    single-threaded (construction, partial build) or behind the session
    writer lock (``extend()``), never against the read path.
    """

    __slots__ = ("ids", "grams", "by_length", "buckets")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.grams: list[Counter[str]] = []
        self.by_length: dict[int, list[int]] = {}
        self.buckets: dict[str, list[int]] = {}

    def register(self, value: str, grams: Counter[str]) -> int:
        """Register a new value with its gram multiset; returns its id.

        The state keeps ``grams`` — callers pass a counter they own.
        """
        value_id = len(self.grams)
        self.ids[value] = value_id
        self.grams.append(grams)
        self.by_length.setdefault(len(value), []).append(value_id)
        for gram in grams:
            self.buckets.setdefault(gram, []).append(value_id)
        return value_id

    def find(self, query: str) -> int:
        """The insertion id of ``query``, or ``-1``."""
        return self.ids.get(query, -1)

    def counter(self, value_id: int) -> Counter[str]:
        """One value's gram multiset (internal; callers must not mutate)."""
        return self.grams[value_id]

    def query_pairs(self, query_grams: Counter[str]) -> tuple[tuple[str, int], ...]:
        """A probe's ``(gram, count)`` pairs, as :meth:`accumulate` takes
        them."""
        return tuple(query_grams.items())

    def accumulate(self, query_pairs: Iterable[tuple[str, int]]) -> Counter[int]:
        """``value id -> overlap`` for every value sharing a gram with
        the probe, summed while each query gram's bucket is walked once
        (ScanCount; Li, Lu & Lu, ICDE 2008).

        ``min(query, stored)`` is the number of levels ``1..query`` the
        stored count reaches.  Every bucket entry reaches level 1, so
        the bucket goes through ``Counter.update`` whole, and a gram the
        probe holds once — nearly all of them — is done; only a
        repeated gram reads stored counts, for the entries still in at
        each further level.  The accumulator is local to the call:
        readers of a frozen index share nothing.
        """
        shared: Counter[int] = Counter()
        grams = self.grams
        for gram, count in query_pairs:
            holders = self.buckets.get(gram, ())
            shared.update(holders)
            for level in range(2, count + 1):
                holders = [v for v in holders if grams[v][gram] >= level]
                shared.update(holders)
        return shared

    def length_classes(self) -> tuple[tuple[int, Sequence[int]], ...]:
        """``(length, value ids)`` per length class (the class list is a
        snapshot, so a probe never iterates a dict a writer grows)."""
        return tuple(self.by_length.items())
