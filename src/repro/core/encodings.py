"""The term state a :class:`CorpusIndex` reads through.

A corpus index holds its occurrence state in one :class:`DictTermState`
and asks it every read — ``occurrence_row``, ``key_row``,
``key_elsewhere``, ``union_cardinality``, ``union_rows``,
``block_terms``, ``len``.  ``freeze()`` / ``thaw()`` only flip the
index's read-only pin; the state a frozen index reads is the one it was
built in.

The module keeps its name for the one check the old encoding knob
leaves behind: :func:`require_dict_encoding`, which accepts ``"dict"``
(the only index there is) and names the removal for anything else.
"""

from __future__ import annotations

from typing import Iterable


def require_dict_encoding(encoding: object) -> None:
    """Raise ``ValueError`` unless ``encoding`` is ``"dict"``.

    The compact encoding was removed; the ``encoding`` / ``index_encoding``
    names that remain accept only the one index representation.
    """
    if encoding != "dict":
        raise ValueError(
            f"index encoding {encoding!r} is not available: the compact "
            "index encoding was removed and 'dict' is the only value"
        )


def set_union_size(left, right) -> int:
    """``|left ∪ right|`` without materializing the union set:
    membership-count the smaller side against the larger instead of
    allocating ``left | right`` just to take its length."""
    if len(left) < len(right):
        left, right = right, left
    return len(left) + sum(1 for item in right if item not in left)


class DictTermState:
    """Dict/set occurrence state of a corpus index.

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
