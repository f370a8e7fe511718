"""Flat array-backed primitives for the compact index encoding.

The XPath-accelerator move applied to this codebase's standing
structures (see ROADMAP "Succinct, array-backed index encoding"):
instead of dicts keyed by strings holding Python ``set``/``Counter``
values, a *frozen* index re-encodes itself as

* a :class:`StringTable` — the distinct strings, sorted, looked up by
  binary search, so every later reference is a small integer code;
* :class:`PostingLists` — rows of sorted integers concatenated
  into one flat ``array``, addressed by an offset index, so membership
  is a bounded binary search and set algebra is a sorted merge over
  array slices;
* :class:`CompactGramStore` — the q-gram multisets of a similar-value
  index as per-value ``(gram code, count)`` rows, so the count filter's
  ``sum(min(...))`` becomes a two-pointer merge instead of Counter
  lookups.

Everything here is **read-only after construction** (the classes are in
the lint config's frozen set) and hands out *snapshots* — row accessors
return tuples or fresh arrays, never views into the internal buffers
(the RPR001 contract; a leaked buffer view would alias index state
across the lock-free read path).

The payload helpers serialize arrays as raw little/big-endian bytes for
the :class:`~repro.ingest.store.IndexStore` snapshot format, so a warm
load reconstructs the frozen index by slicing buffers instead of
re-running tuple scans and gram counting.  Loaders compare
:data:`BYTEORDER` and treat a mismatch as a cache miss.
"""

from __future__ import annotations

import base64
import binascii
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

#: Host byte order recorded in snapshot payloads; a loader on the other
#: endianness treats the payload as a miss and rebuilds from ODs.
BYTEORDER = sys.byteorder


class StringTable:
    """Sorted, deduplicated string heap with binary-search lookup.

    A string's *code* is its rank in the sorted order — stable for the
    table's lifetime, so posting structures can reference strings by
    small integers instead of interned object pointers.
    """

    __slots__ = ("_strings",)

    def __init__(self, strings: Sequence[str]) -> None:
        interned = tuple(strings)
        for left, right in zip(interned, interned[1:]):
            if left >= right:
                raise ValueError(
                    "StringTable input must be strictly sorted (use build())"
                )
        self._strings = interned

    @classmethod
    def build(cls, values: Iterable[str]) -> "StringTable":
        """Table over the distinct strings of an iterable."""
        return cls(sorted(set(values)))

    def __len__(self) -> int:
        return len(self._strings)

    def __getitem__(self, code: int) -> str:
        return self._strings[code]

    def __contains__(self, value: str) -> bool:
        return self.code_of(value) >= 0

    def code_of(self, value: str) -> int:
        """The string's code, or ``-1`` when absent."""
        strings = self._strings
        found = bisect_left(strings, value)
        if found < len(strings) and strings[found] == value:
            return found
        return -1

    def strings(self) -> tuple[str, ...]:
        """The sorted strings (immutable snapshot)."""
        return self._strings


class PostingLists:
    """Rows of sorted integers, concatenated flat.

    The element typecode is the builder's choice: unsigned (``"I"``)
    for string/value codes, signed (``"i"``) for object-id rows, which
    must carry the negative foreign-probe sentinel ids the dict
    encoding's sets hold transparently.

    Row ``i`` is ``data[offsets[i]:offsets[i + 1]]``.  Rows must be
    sorted ascending for the binary-search/merge operations; builders
    are responsible (``build`` trusts its input, the index compactors
    sort).  Accessors copy — the internal arrays never escape.
    """

    __slots__ = ("_offsets", "_data")

    def __init__(self, offsets: array, data: array) -> None:
        if offsets.typecode != "Q":
            raise ValueError(
                f"offsets must be an array('Q'), got {offsets.typecode!r}"
            )
        if not offsets or offsets[0] != 0 or offsets[-1] != len(data):
            raise ValueError("offsets must run from 0 to len(data)")
        for left, right in zip(offsets, memoryview(offsets)[1:]):
            if left > right:
                raise ValueError("offsets must be non-decreasing")
        self._offsets = offsets
        self._data = data

    @classmethod
    def build(
        cls, rows: Iterable[Iterable[int]], typecode: str = "I"
    ) -> "PostingLists":
        """Concatenate pre-sorted rows into one flat structure."""
        offsets = array("Q", [0])
        data = array(typecode)
        for row in rows:
            data.extend(row)
            offsets.append(len(data))
        return cls(offsets, data)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def total_items(self) -> int:
        """Total stored integers across all rows."""
        return len(self._data)

    def row(self, index: int) -> tuple[int, ...]:
        """One row as an immutable snapshot."""
        if index < 0:
            raise IndexError(f"row index must be >= 0, got {index}")
        return tuple(self._data[self._offsets[index] : self._offsets[index + 1]])

    def row_length(self, index: int) -> int:
        if index < 0:
            raise IndexError(f"row index must be >= 0, got {index}")
        return self._offsets[index + 1] - self._offsets[index]

    def contains(self, index: int, item: int) -> bool:
        """Membership in one row — a bounded binary search, no copy."""
        return self.position(index, item) >= 0

    def position(self, index: int, item: int) -> int:
        """Where ``item`` sits in the flat data if row ``index`` holds
        it, else ``-1`` (bounded binary search, no copy); aligned
        structures read their own :meth:`item` there."""
        if index < 0:
            raise IndexError(f"row index must be >= 0, got {index}")
        low = self._offsets[index]
        high = self._offsets[index + 1]
        found = bisect_left(self._data, item, low, high)
        return found if found < high and self._data[found] == item else -1

    def item(self, position: int) -> int:
        """The integer at one flat position (see :meth:`position`)."""
        return self._data[position]

    def update_set(self, index: int, out: "set[int] | Counter[int]") -> None:
        """Fold one row into ``out`` by its ``update``: a set unions the
        row in (k-way union building block), a ``Counter`` counts it."""
        if index < 0:
            raise IndexError(f"row index must be >= 0, got {index}")
        out.update(self._data[self._offsets[index] : self._offsets[index + 1]])

    def union_size(self, left: int, right: int) -> int:
        """``|row(left) ∪ row(right)|`` by two-pointer merge, no copies."""
        data = self._data
        offsets = self._offsets
        i, i_end = offsets[left], offsets[left + 1]
        j, j_end = offsets[right], offsets[right + 1]
        count = 0
        while i < i_end and j < j_end:
            a = data[i]
            b = data[j]
            if a == b:
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
            count += 1
        return count + (i_end - i) + (j_end - j)

    def to_payload(self) -> dict:
        """Snapshot-serializable form (raw bytes, base64-wrapped)."""
        return {
            "offsets": encode_array(self._offsets),
            "data": encode_array(self._data),
        }

    @classmethod
    def from_payload(cls, payload: object) -> "PostingLists":
        if not isinstance(payload, dict):
            raise ValueError("malformed posting-list payload")
        offsets = decode_array(payload.get("offsets"))
        data = decode_array(payload.get("data"))
        if offsets is None or data is None:
            raise ValueError("malformed posting-list payload")
        return cls(offsets, data)


class CompactGramStore:
    """Interned gram vocabulary plus per-value ``(code, count)`` rows.

    The compact form of a similar-value index's ``list[Counter]`` gram
    state: one :class:`StringTable` over the distinct grams, and two
    aligned :class:`PostingLists` holding, per value, the sorted gram
    codes and their multiset counts.  The count filter's exact multiset
    overlap (``sum(min(stored, query))``) becomes a two-pointer merge
    against a pre-coded query.
    """

    __slots__ = ("_vocabulary", "_codes", "_counts")

    def __init__(
        self,
        vocabulary: StringTable,
        codes: PostingLists,
        counts: PostingLists,
    ) -> None:
        if len(codes) != len(counts):
            raise ValueError(
                f"code rows ({len(codes)}) and count rows ({len(counts)}) "
                "must align"
            )
        if codes.total_items() != counts.total_items():
            raise ValueError("code and count rows must pair item for item")
        self._vocabulary = vocabulary
        self._codes = codes
        self._counts = counts

    @classmethod
    def build(cls, counters: Sequence[Counter[str]]) -> "CompactGramStore":
        vocabulary = StringTable.build(
            gram for counter in counters for gram in counter
        )
        code_rows: list[list[int]] = []
        count_rows: list[list[int]] = []
        for counter in counters:
            pairs = sorted(
                (vocabulary.code_of(gram), count)
                for gram, count in counter.items()
            )
            code_rows.append([code for code, _ in pairs])
            count_rows.append([count for _, count in pairs])
        return cls(
            vocabulary, PostingLists.build(code_rows), PostingLists.build(count_rows)
        )

    def __len__(self) -> int:
        return len(self._codes)

    def vocabulary(self) -> StringTable:
        """The gram table (immutable)."""
        return self._vocabulary

    def codes_row(self, index: int) -> tuple[int, ...]:
        """One value's sorted gram codes (snapshot)."""
        return self._codes.row(index)

    def counter(self, index: int) -> Counter[str]:
        """Decompact one value's gram multiset (always a fresh Counter)."""
        vocabulary = self._vocabulary
        return Counter(
            {
                vocabulary[code]: count
                for code, count in zip(
                    self._codes.row(index), self._counts.row(index)
                )
            }
        )

    def query_pairs(self, grams: Counter[str]) -> list[tuple[int, int]]:
        """A probe's sorted ``(code, count)`` pairs; unseen grams drop
        out (their stored count is zero, so ``min`` contributes 0)."""
        pairs: list[tuple[int, int]] = []
        for gram, count in grams.items():
            code = self._vocabulary.code_of(gram)
            if code >= 0:
                pairs.append((code, count))
        pairs.sort()
        return pairs

    def count(self, index: int, code: int) -> int:
        """How often value ``index`` holds the gram ``code``."""
        position = self._codes.position(index, code)
        return self._counts.item(position) if position >= 0 else 0

    def overlap(
        self, index: int, query_pairs: Sequence[tuple[int, int]]
    ) -> int:
        """Exact multiset overlap of one row with a pre-coded query."""
        row_codes = self._codes.row(index)
        row_counts = self._counts.row(index)
        i = j = 0
        total = 0
        row_size = len(row_codes)
        query_size = len(query_pairs)
        while i < row_size and j < query_size:
            code = row_codes[i]
            query_code = query_pairs[j][0]
            if code == query_code:
                total += min(row_counts[i], query_pairs[j][1])
                i += 1
                j += 1
            elif code < query_code:
                i += 1
            else:
                j += 1
        return total

    def to_payload(self) -> dict:
        return {
            "vocabulary": list(self._vocabulary.strings()),
            "codes": self._codes.to_payload(),
            "counts": self._counts.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: object) -> "CompactGramStore":
        if not isinstance(payload, dict):
            raise ValueError("malformed gram-store payload")
        vocabulary = payload.get("vocabulary")
        if not isinstance(vocabulary, list):
            raise ValueError("malformed gram-store payload")
        return cls(
            StringTable([str(gram) for gram in vocabulary]),
            PostingLists.from_payload(payload.get("codes")),
            PostingLists.from_payload(payload.get("counts")),
        )


class CompactValueIndex:
    """Compact (frozen) state shared by both similar-value strategies.

    Holds everything a compacted :class:`~repro.strings.qgram.
    QGramIndex` / :class:`~repro.strings.signatures.SignatureIndex`
    needs beyond its insertion-ordered value list (which the owning
    index keeps — result lists and value ids are defined by insertion
    order, so it must survive compaction byte for byte):

    * ``order`` — the permutation of value ids sorted by value, so the
      ``_ids`` dict becomes a binary search;
    * ``grams`` — the :class:`CompactGramStore` replacing the Counter
      list;
    * ``length_keys``/``length_rows`` — the by-length classes as a
      sorted key array over posting rows;
    * ``buckets`` — gram-code -> value-id postings (q-gram strategy
      only; the signature strategy derives its prefix postings lazily).
    """

    __slots__ = ("order", "grams", "length_keys", "length_rows", "buckets")

    def __init__(
        self,
        order: array,
        grams: CompactGramStore,
        length_keys: array,
        length_rows: PostingLists,
        buckets: Optional[PostingLists] = None,
    ) -> None:
        if len(order) != len(grams):
            raise ValueError(
                f"permutation covers {len(order)} values but the gram "
                f"store holds {len(grams)}"
            )
        if len(length_keys) != len(length_rows):
            raise ValueError("length keys and rows must align")
        if buckets is not None and len(buckets) != len(grams.vocabulary()):
            raise ValueError("buckets must hold one row per gram code")
        self.order = order
        self.grams = grams
        self.length_keys = length_keys
        self.length_rows = length_rows
        self.buckets = buckets

    @classmethod
    def build(
        cls,
        values: Sequence[str],
        counters: Sequence[Counter[str]],
        with_buckets: bool,
    ) -> "CompactValueIndex":
        order = build_permutation(values)
        grams = CompactGramStore.build(counters)
        by_length: dict[int, list[int]] = {}
        for value_id, value in enumerate(values):
            by_length.setdefault(len(value), []).append(value_id)
        lengths = sorted(by_length)
        length_keys = array("I", lengths)
        length_rows = PostingLists.build(by_length[length] for length in lengths)
        buckets = None
        if with_buckets:
            rows: list[list[int]] = [[] for _ in range(len(grams.vocabulary()))]
            for value_id in range(len(values)):
                for code in grams.codes_row(value_id):
                    rows[code].append(value_id)
            buckets = PostingLists.build(rows)
        return cls(order, grams, length_keys, length_rows, buckets)

    # The gram-state read surface (see ``strings.value_index``).
    def find(self, values: Sequence[str], query: str) -> int:
        """The insertion id of ``query`` in ``values``, or ``-1``."""
        return permutation_find(values, self.order, query)

    def counter(self, value_id: int) -> Counter[str]:
        """One value's gram multiset (always a fresh Counter)."""
        return self.grams.counter(value_id)

    def query_pairs(self, query_grams: Counter[str]) -> list[tuple[int, int]]:
        """A probe's sorted ``(gram code, count)`` pairs, as
        :meth:`overlap` and :meth:`accumulate` take them."""
        return self.grams.query_pairs(query_grams)

    def overlap(
        self, value_id: int, query_pairs: Sequence[tuple[int, int]]
    ) -> int:
        """Exact multiset overlap of one value with a pre-coded probe —
        the same ``sum(min(stored, query))`` as a two-pointer merge."""
        return self.grams.overlap(value_id, query_pairs)

    def accumulate(
        self, query_pairs: Sequence[tuple[int, int]]
    ) -> Counter[int]:
        """``value id -> overlap`` for every value sharing a gram with
        the probe, summed while each gram code's posting row is walked
        once — ``DictValueState.accumulate`` over arrays: the row is
        counted by one ``Counter.update`` on its slice, and only a gram
        the probe repeats reads stored counts, level by level.  The
        accumulator is local to the call.
        """
        shared: Counter[int] = Counter()
        stored = self.grams.count
        for code, count in query_pairs:
            self.buckets.update_set(code, shared)
            if count > 1:
                holders: Sequence[int] = self.buckets.row(code)
                for level in range(2, count + 1):
                    holders = [v for v in holders if stored(v, code) >= level]
                    shared.update(holders)
        return shared

    def length_classes(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """``(length, value ids)`` per length class (snapshots)."""
        for index in range(len(self.length_keys)):
            yield self.length_keys[index], self.length_rows.row(index)

    def to_payload(self) -> dict:
        payload = {
            "order": encode_array(self.order),
            "grams": self.grams.to_payload(),
            "length_keys": encode_array(self.length_keys),
            "length_rows": self.length_rows.to_payload(),
        }
        if self.buckets is not None:
            payload["buckets"] = self.buckets.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "CompactValueIndex":
        if not isinstance(payload, dict):
            raise ValueError("malformed compact-value-index payload")
        order = decode_array(payload.get("order"))
        length_keys = decode_array(payload.get("length_keys"))
        if order is None or length_keys is None:
            raise ValueError("malformed compact-value-index payload")
        buckets = None
        if "buckets" in payload:
            buckets = PostingLists.from_payload(payload["buckets"])
        return cls(
            order,
            CompactGramStore.from_payload(payload.get("grams")),
            length_keys,
            PostingLists.from_payload(payload.get("length_rows")),
            buckets,
        )


# ----------------------------------------------------------------------
# Sorted-sequence helpers
# ----------------------------------------------------------------------
def build_permutation(values: Sequence[str]) -> array:
    """Value ids sorted by their string — the binary-search index over
    an insertion-ordered value list."""
    return array("I", sorted(range(len(values)), key=values.__getitem__))

def permutation_find(values: Sequence[str], order: array, query: str) -> int:
    """The insertion id holding ``query``, or ``-1`` (bisect through a
    sorted permutation, replacing a str -> id dict)."""
    low, high = 0, len(order)
    while low < high:
        mid = (low + high) // 2
        if values[order[mid]] < query:
            low = mid + 1
        else:
            high = mid
    if low < len(order) and values[order[low]] == query:
        return order[low]
    return -1

# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
def deep_sizeof(obj: object) -> int:
    """Total ``sys.getsizeof`` bytes reachable from ``obj``.

    The measurement behind the encoding's memory contract (the bench
    of record's ``core.index_bytes`` and the slow-marked regression
    test): descends dicts, sequences, sets, ``__dict__``/``__slots__``
    instances; flat ``array`` buffers are already priced by
    ``getsizeof``.  Shared objects count once (id-dedup), so comparing
    two structures over the same interned strings is fair.
    """
    seen: set[int] = set()
    stack: list = [obj]
    total = 0
    while stack:
        current = stack.pop()
        if id(current) in seen or isinstance(current, type):
            continue
        seen.add(id(current))
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif isinstance(current, (array, str, bytes, bytearray)):
            continue  # getsizeof covers the buffer
        else:
            instance_dict = getattr(current, "__dict__", None)
            if isinstance(instance_dict, dict):
                stack.append(instance_dict)
            for klass in type(current).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(current, name):
                        stack.append(getattr(current, name))
    return total


def encode_array(values: array) -> dict:
    """An array as raw bytes (typecode + itemsize recorded)."""
    return {
        "typecode": values.typecode,
        "itemsize": values.itemsize,
        "data": base64.b64encode(values.tobytes()).decode("ascii"),
    }

def decode_array(payload: object) -> Optional[array]:
    """Rebuild an array from :func:`encode_array` output, or ``None``.

    ``None`` (not an exception) on shape mismatches — e.g. a platform
    whose ``array('I')`` itemsize differs from the writer's — so
    loaders degrade to a cache miss instead of an error.
    """
    if not isinstance(payload, dict):
        return None
    typecode = payload.get("typecode")
    raw = payload.get("data")
    if not isinstance(typecode, str) or not isinstance(raw, str):
        return None
    try:
        out = array(typecode)
    except ValueError:
        return None
    if out.itemsize != payload.get("itemsize"):
        return None
    try:
        # validate=True: b64decode otherwise *drops* foreign characters
        # silently, turning corrupt payloads into short (even empty)
        # arrays instead of a miss.
        out.frombytes(base64.b64decode(raw.encode("ascii"), validate=True))
    except (ValueError, TypeError, binascii.Error):
        return None
    return out
