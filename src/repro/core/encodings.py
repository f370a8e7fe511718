"""Index encodings: the two states a :class:`CorpusIndex` reads through.

A corpus index holds its occurrence state in exactly one *term state*
object and asks it every read — ``occurrence_row``, ``key_row``,
``union_cardinality``, ``union_rows``, ``block_terms``, ``len`` — so
nothing above this module knows which representation answers:

* :class:`DictTermState` — dicts of object-id sets.  The only writable
  state: every index is built in it, and ``thaw()`` returns to it so
  ``extend()`` delta-merges run against the original representation.
  Under the ``"dict"`` encoding (the parity oracle) it is also what a
  frozen index keeps.
* :class:`~repro.core.compact_terms.CompactTermIndex` — interned string
  tables plus flat sorted posting arrays (see :mod:`repro.compact`).
  Under the ``"compact"`` encoding ``freeze()`` swaps the dict state for
  this one and compacts every similar-value index alongside; it is
  immutable, so a write path that skipped ``thaw()`` fails loudly
  instead of silently diverging.  It lives in its own module, which the
  dict encoding never imports.

Both answer every query bit-identically — the differential harness in
``tests/test_index_encodings.py`` pins this.  ``INDEX_ENCODINGS`` names
the state a frozen index holds, mirroring the similarity ``STRATEGIES``
registry.  The compact state also serializes as raw array bytes for
:class:`~repro.ingest.store.IndexStore` payloads (format version 2): a
warm load rebuilds the index by slicing buffers instead of re-running
tuple scans and gram counting.
"""

from __future__ import annotations

import os
from typing import Iterable

from .._lazy import LazyRegistry

#: Environment variable consulted for the default index encoding.
ENCODING_ENV_VAR = "REPRO_INDEX_ENCODING"


def set_union_size(left, right) -> int:
    """``|left ∪ right|`` without materializing the union set.

    The dict encoding's answer to what the compact one does with
    :meth:`~repro.compact.PostingLists.union_size`: membership-count
    the smaller side against the larger instead of allocating
    ``left | right`` just to take its length.
    """
    if len(left) < len(right):
        left, right = right, left
    return len(left) + sum(1 for item in right if item not in left)


class DictTermState:
    """Dict/set occurrence state of a building (or dict-frozen) index.

    ``occurrences`` maps ``(comparison key, value) -> object ids`` and
    ``objects_by_key`` maps ``key -> object ids``; both are adopted
    from the index's own build scan and written afterwards only by
    ``repro.core.index._fold_term_state``, under the index's freeze
    discipline.  Reads hand out snapshots, never the live sets.
    """

    __slots__ = ("occurrences", "objects_by_key")

    def __init__(self) -> None:
        self.occurrences: dict[tuple[str, str], set[int]] = {}
        self.objects_by_key: dict[str, set[int]] = {}

    def __len__(self) -> int:
        return len(self.occurrences)

    def occurrence_row(self, key: str, value: str) -> frozenset[int]:
        """The term's object ids (snapshot; empty when absent)."""
        return frozenset(self.occurrences.get((key, value), ()))

    def key_row(self, key: str) -> frozenset[int]:
        """All object ids under a comparison key (snapshot)."""
        return frozenset(self.objects_by_key.get(key, ()))

    def key_elsewhere(self, key: str, object_id: int) -> bool:
        """Whether an object other than ``object_id`` specifies this kind."""
        row = self.objects_by_key.get(key, ())
        return len(row) > (object_id in row)  # more holders than itself

    def union_cardinality(
        self, key_i: str, value_i: str, key_j: str, value_j: str
    ) -> int:
        """``|O_i ∪ O_j|``, counted by membership of the smaller set in
        the larger — the union set is never built."""
        occurrences = self.occurrences
        return set_union_size(
            occurrences.get((key_i, value_i), ()),
            occurrences.get((key_j, value_j), ()),
        )

    def union_rows(self, key: str, values: Iterable[str]) -> set[int]:
        """Union of several terms' object ids under one key."""
        found: set[int] = set()
        occurrences = self.occurrences
        for value in values:
            found.update(occurrences.get((key, value), ()))
        return found

    def block_terms(self) -> tuple[tuple[str, str], ...]:
        """Every indexed term, in insertion order (snapshot)."""
        return tuple(self.occurrences)


#: Registered index encodings: canonical name -> the term state a
#: frozen index holds under it, imported when the name is looked up.
INDEX_ENCODINGS = LazyRegistry(
    {
        "dict": "repro.core.encodings:DictTermState",
        "compact": "repro.core.compact_terms:CompactTermIndex",
    }
)


def default_index_encoding() -> str:
    """The process-wide default (``REPRO_INDEX_ENCODING`` or dict)."""
    return os.environ.get(ENCODING_ENV_VAR, "dict")
