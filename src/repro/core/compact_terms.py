"""The compact term state: what a frozen index holds under the
``"compact"`` encoding (see :mod:`repro.core.encodings` for the pair).

Apart from :class:`~repro.core.encodings.DictTermState` so that the
default encoding never compiles this module or :mod:`repro.compact`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable

from ..compact import PostingLists, StringTable, decode_array, encode_array
from .encodings import DictTermState

_VALUE_MASK = (1 << 32) - 1


class CompactTermIndex:
    """Flat sorted-array occurrence state of a frozen ``CorpusIndex``.

    Terms ``(comparison key, value)`` are packed into one ``array('Q')``
    of ``key_code << 32 | value_code`` words, sorted, so a term lookup
    is two string-table bisects plus one array bisect.  ``postings``
    aligns with ``terms`` and holds each term's sorted object ids;
    ``key_postings`` aligns with the key table and replaces
    ``_objects_by_key``.  Set algebra over occurrence sets becomes
    sorted merges over array slices.
    """

    __slots__ = ("keys", "values", "terms", "postings", "key_postings")

    def __init__(
        self,
        keys: StringTable,
        values: StringTable,
        terms: array,
        postings: PostingLists,
        key_postings: PostingLists,
    ) -> None:
        if len(terms) != len(postings):
            raise ValueError(
                f"{len(terms)} packed terms but {len(postings)} posting rows"
            )
        if len(key_postings) != len(keys):
            raise ValueError("key postings must hold one row per key")
        for left, right in zip(terms, memoryview(terms)[1:]):
            if left >= right:
                raise ValueError("packed terms must be strictly sorted")
        self.keys = keys
        self.values = values
        self.terms = terms
        self.postings = postings
        self.key_postings = key_postings

    @classmethod
    def build(cls, state: DictTermState) -> "CompactTermIndex":
        """Compact the dict state (consumed read-only)."""
        occurrences = state.occurrences
        objects_by_key = state.objects_by_key
        keys = StringTable.build(
            set(objects_by_key) | {key for key, _ in occurrences}
        )
        values = StringTable.build(value for _, value in occurrences)
        coded = sorted(
            (
                ((keys.code_of(key) << 32) | values.code_of(value), members)
                for (key, value), members in occurrences.items()
            ),
            key=lambda item: item[0],
        )
        terms = array("Q", [packed for packed, _ in coded])
        # Signed rows: foreign-probe sentinels give match() corpora
        # negative object ids, which the dict encoding's sets carry
        # transparently — the arrays must too.
        postings = PostingLists.build(
            (sorted(members) for _, members in coded), typecode="i"
        )
        key_postings = PostingLists.build(
            (
                sorted(objects_by_key.get(keys[code], ()))
                for code in range(len(keys))
            ),
            typecode="i",
        )
        return cls(keys, values, terms, postings, key_postings)

    def __len__(self) -> int:
        return len(self.terms)

    def _slot_of(self, packed: int) -> int:
        terms = self.terms
        slot = bisect_left(terms, packed)
        if slot < len(terms) and terms[slot] == packed:
            return slot
        return -1

    def term_slot(self, key: str, value: str) -> int:
        """The packed term's row index, or ``-1`` when absent."""
        key_code = self.keys.code_of(key)
        if key_code < 0:
            return -1
        value_code = self.values.code_of(value)
        if value_code < 0:
            return -1
        return self._slot_of((key_code << 32) | value_code)

    def occurrence_row(self, key: str, value: str) -> tuple[int, ...]:
        """The term's sorted object ids (snapshot; empty when absent)."""
        slot = self.term_slot(key, value)
        if slot < 0:
            return ()
        return self.postings.row(slot)

    def union_cardinality(
        self, key_i: str, value_i: str, key_j: str, value_j: str
    ) -> int:
        """``|O_i ∪ O_j|`` by sorted two-pointer merge over the two
        posting rows; an unseen term contributes nothing."""
        slot_i = self.term_slot(key_i, value_i)
        slot_j = self.term_slot(key_j, value_j)
        if slot_i < 0:
            return self.postings.row_length(slot_j) if slot_j >= 0 else 0
        if slot_j < 0:
            return self.postings.row_length(slot_i)
        return self.postings.union_size(slot_i, slot_j)

    def union_rows(self, key: str, values: Iterable[str]) -> set[int]:
        """Union of several terms' posting rows under one key — the
        k-way merge behind ``objects_with_similar``."""
        found: set[int] = set()
        key_code = self.keys.code_of(key)
        if key_code < 0:
            return found
        base = key_code << 32
        for value in values:
            value_code = self.values.code_of(value)
            if value_code < 0:
                continue
            slot = self._slot_of(base | value_code)
            if slot >= 0:
                self.postings.update_set(slot, found)
        return found

    def key_row(self, key: str) -> tuple[int, ...]:
        """All object ids under a comparison key (snapshot)."""
        code = self.keys.code_of(key)
        if code < 0:
            return ()
        return self.key_postings.row(code)

    def key_elsewhere(self, key: str, object_id: int) -> bool:
        """Whether an object other than ``object_id`` specifies this kind."""
        code = self.keys.code_of(key)
        postings = self.key_postings
        return code >= 0 and (
            postings.row_length(code) > postings.contains(code, object_id)
        )

    def block_terms(self) -> tuple[tuple[str, str], ...]:
        """Every indexed term, in packed-code (sorted) order.

        The dict encoding yields insertion order here; term order is
        non-contractual (shard ownership hashes terms and the pipeline
        sorts results), which the parity harness exercises.
        """
        keys = self.keys
        values = self.values
        return tuple(
            (keys[packed >> 32], values[packed & _VALUE_MASK])
            for packed in self.terms
        )

    def decompact(self) -> DictTermState:
        """Rebuild the writable dict state (fresh sets throughout)."""
        state = DictTermState()
        keys = self.keys
        values = self.values
        for slot, packed in enumerate(self.terms):
            term = (keys[packed >> 32], values[packed & _VALUE_MASK])
            state.occurrences[term] = set(self.postings.row(slot))
        for code in range(len(keys)):
            row = self.key_postings.row(code)
            if row:
                state.objects_by_key[keys[code]] = set(row)
        return state

    def to_payload(self) -> dict:
        return {
            "keys": list(self.keys.strings()),
            "values": list(self.values.strings()),
            "terms": encode_array(self.terms),
            "postings": self.postings.to_payload(),
            "key_postings": self.key_postings.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: object) -> "CompactTermIndex":
        if not isinstance(payload, dict):
            raise ValueError("malformed term-index payload")
        keys = payload.get("keys")
        values = payload.get("values")
        terms = decode_array(payload.get("terms"))
        if (
            not isinstance(keys, list)
            or not isinstance(values, list)
            or terms is None
        ):
            raise ValueError("malformed term-index payload")
        return cls(
            StringTable([str(key) for key in keys]),
            StringTable([str(value) for value in values]),
            terms,
            PostingLists.from_payload(payload.get("postings")),
            PostingLists.from_payload(payload.get("key_postings")),
        )
