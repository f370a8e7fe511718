"""Memory regression: the compact encoding must stay compact.

The compact encoding's space contract, pinned at reduced scale (the
bench of record reports the default encoding's ``core.index_bytes``): a
frozen compact index's reachable footprint — posting arrays,
string tables, gram rows — must be at most **half** the dict
encoding's dict/set/Counter maze over the same corpus.  A refactor
that quietly reintroduces per-term Python sets or per-value Counters
into the frozen form fails here before it reaches a benchmark.
"""

from __future__ import annotations

import random

import pytest

from repro.compact import deep_sizeof
from repro.core.index import CorpusIndex
from repro.framework import TypeMapping, od_from_pairs

KINDS = ("title", "artist", "year")


def index_footprint(index: CorpusIndex) -> int:
    """Bytes reachable from the index's term + value-index state."""
    return deep_sizeof((index._terms, index._value_indexes))


def typo_corpus(count: int, seed: int = 19):
    """A typo-heavy OD population (the Dataset-3 dirtiness shape)."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnop"

    def word(length: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(length))

    bases = {
        kind: [word(rng.randint(6, 14)) for _ in range(max(4, count // 8))]
        for kind in KINDS
    }
    ods = []
    for i in range(count):
        pairs = []
        for kind in KINDS:
            value = rng.choice(bases[kind])
            if rng.random() < 0.4:  # near-duplicate typo
                at = rng.randrange(len(value))
                value = value[:at] + rng.choice(alphabet) + value[at + 1 :]
            pairs.append((value, f"/db/item[{i + 1}]/{kind}[1]"))
        ods.append(od_from_pairs(i, pairs))
    return ods


@pytest.mark.slow
def test_compact_footprint_at_most_half_of_dict():
    ods = typo_corpus(1000)
    dict_index = CorpusIndex(ods, TypeMapping(), 0.25)
    dict_index.freeze()
    compact_index = CorpusIndex(ods, TypeMapping(), 0.25, encoding="compact")
    compact_index.freeze()
    # Same corpus, same answers — the statistics pin it cheaply here
    # (the full differential harness lives in test_index_encodings.py).
    assert compact_index.statistics() == dict_index.statistics()

    dict_bytes = index_footprint(dict_index)
    compact_bytes = index_footprint(compact_index)
    assert compact_bytes * 2 <= dict_bytes, (
        f"compact encoding lost its space edge: {compact_bytes} bytes vs "
        f"{dict_bytes} dict bytes "
        f"({compact_bytes / dict_bytes:.2f}x, contract <= 0.50x)"
    )


@pytest.mark.slow
def test_thaw_restores_and_refreeze_recompacts_the_footprint():
    """The extend() seam does not leak: decompacting rebuilds the dict
    maze, re-freezing drops it again — the compact footprint after a
    thaw/freeze cycle stays in the contract."""
    ods = typo_corpus(1000)
    index = CorpusIndex(ods, TypeMapping(), 0.25, encoding="compact")
    index.freeze()
    frozen_bytes = index_footprint(index)
    index.thaw()
    thawed_bytes = index_footprint(index)
    assert thawed_bytes > frozen_bytes  # the dict maze is back
    index.freeze()
    assert index_footprint(index) * 2 <= thawed_bytes
