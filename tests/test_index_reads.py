"""Every ``CorpusIndex`` read against the brute-force oracle.

``tests/reference/naive_index.py`` answers each read from the OD list
alone; here the shipped index must give the same answers:

* every read family — occurrence and key rows, ``key_elsewhere``,
  union cardinality through ``pair_idf``, ``term_idf``, block terms,
  members and keys, ``statistics``, similar-value groups, the verdicts
  step 5 reads from them and ``similar_elsewhere`` — over the fuzz corpora of the write-path oracle,
  frozen after a build, after two thaw / merge / re-freeze rounds, and
  after assembly from pickled worker partials the way parallel ingest
  assembles it; the reads that depend on θ_tuple also at θ = 0 and at
  the running example's 0.55;
* value pools — random, Unicode / whitespace edges, DBLP-flavored
  values and the backend-harness corpus shapes — searched at every
  threshold and q and held to brute-force ``ned``, also after the value
  index was merged together from parts in any order;
* the union counter, the soft-IDF expression with its union
  materialized, a term's soft-IDF with itself, the statistics memo, negative object ids, and the
  freeze pin, which keeps the state the index was built in.

Extend-delta parity at the session level is
``tests/test_write_path.py::TestExtendedEqualsRebuilt``; parity across
execution backends is ``tests/test_backend_equivalence.py``.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest
from reference.naive_index import NaiveIndex, ned
from test_backend_equivalence import SEEDS, SHAPES, random_corpus

import repro.core.index as index_module
from repro.api import DetectionSession
from repro.core.index import set_union_size
from repro.core.index import CorpusIndex, IndexPartial
from repro.eval import build_dataset1
from repro.framework import TypeMapping, od_from_pairs
from repro.strings import QGramIndex

THETA_TUPLE = 0.25
THRESHOLDS = (0.0, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)

#: DBLP-flavored values: decoded umlauts vs ASCII foldings, homonym
#: ordinal suffixes, venue abbreviations, and author lists of mixed
#: cardinality.
DBLP_VALUES = [
    "Michael J. Carey 0001",
    "Michael J. Carey 0002",
    "Michael Carey",
    "Thomas Hütter",
    "Thomas Huetter",
    "Müller, Jürgen",
    "Mueller, Jurgen",
    "Jürgen Müller 0003",
    "Daniel Ulrich Schmitt",
    "D. U. Schmitt",
    "A Two-Level Signature Scheme for Stable Set Similarity Joins.",
    "A Two Level Signature Scheme for Stable Set Similarity Joins",
    "Efficient Similarity Joins.",
    "Efficient Similarity Join.",
    "Jeffrey F. Naughton, David J. DeWitt",
    "David J. DeWitt, Jeffrey F. Naughton, Michael J. Carey 0001",
    "Proc. VLDB Endow.",
    "PVLDB",
    "VLDB",
    "2023",
]

EDGE_VALUES = ["", " ", "  ", "\t", "ü", "üü", "ß ß", "a", "aa", " a ",
               "étude", "étude", "noël", "noel"]


def _random_values(seed: int, count: int = 40) -> list[str]:
    rng = random.Random(seed)
    alphabet = "abcdeü ß.0"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for _ in range(count)
    ]


def _harness_shape_values(shape: str, seed: int = SEEDS[0]) -> list[str]:
    return [
        odt.value
        for od in random_corpus(seed, shape, count=24)
        for odt in od.tuples
    ]


POOLS = {
    "random": _random_values(17),
    "edges": EDGE_VALUES,
    "dblp": DBLP_VALUES,
    **{f"shape-{shape}": _harness_shape_values(shape) for shape in SHAPES},
}


def _build(values, q: int = 2) -> QGramIndex:
    index = QGramIndex(q=q)
    for value in values:
        index.add(value)
    return index


def _probes(values: list[str]) -> list[str]:
    foreign = [value + "x" for value in values[:5]] + ["zq", "", "ü.0"]
    return list(values) + foreign


def frozen(ods, theta_tuple=THETA_TUPLE) -> CorpusIndex:
    index = CorpusIndex(ods, TypeMapping(), theta_tuple)
    index.freeze()
    return index


def grown(ods, theta_tuple=THETA_TUPLE) -> CorpusIndex:
    """An index built over the first half, then grown by the rest in two
    deltas the way ``extend()`` grows it, with warm memos to invalidate."""
    half = len(ods) // 2
    index = frozen(ods[:half], theta_tuple)
    rng = random.Random(len(ods))
    for delta in (ods[half : half + half // 2], ods[half + half // 2 :]):
        for term in index.block_terms():
            index.similar_values(*term)
        for _ in range(20):
            if index.block_terms():
                left, right = rng.choice(index.block_terms()), rng.choice(
                    index.block_terms()
                )
                index.pair_idf(*left, *right)
        index.statistics()
        index.thaw()
        index.merge_partial(
            IndexPartial.from_ods(delta, TypeMapping())
        )
        index.freeze()
    return index


def merged(ods, theta_tuple=THETA_TUPLE) -> CorpusIndex:
    """An index assembled the way ``ParallelIngestor`` assembles it: one
    partial per uneven contiguous chunk, each pickled across the worker
    boundary, folded in chunk order into an empty partial."""
    bounds = [0, len(ods) // 5, len(ods) // 2, len(ods) // 2, len(ods)]
    total = IndexPartial()
    for start, stop in zip(bounds, bounds[1:]):
        chunk = IndexPartial.from_ods(ods[start:stop], TypeMapping())
        total.merge(pickle.loads(pickle.dumps(chunk)))
    index = CorpusIndex.from_partial(total, TypeMapping(), theta_tuple)
    index.freeze()
    return index


#: How a scenario's index came to be: ``built`` frozen after one build,
#: ``grown`` after two thaw / merge / re-freeze rounds, ``merged`` from
#: worker partials.
HISTORIES = {"built": frozen, "grown": grown, "merged": merged}


class Scenario:
    """One index, its oracle, and the ODs and probes both are asked."""

    def __init__(self, index: CorpusIndex, ods) -> None:
        self.index = index
        self.naive = NaiveIndex(ods, TypeMapping(), index.theta_tuple)
        self.ods = ods
        self.terms = self.naive.block_terms()
        self.keys = sorted({key for key, _ in self.terms}) + ["no/such/key"]
        self.ids = sorted({od.object_id for od in ods}) + [-7, 10_000]
        #: every term, plus foreign ones: an unknown key, one edit off a
        #: held value, far from every value
        self.probes = sorted(self.terms) + [
            ("no/such/key", "value"),
            *((k, v[:-1] + "~") for k, v in sorted(self.terms)[:6] if v),
            *((key, "~" * 10) for key in self.keys[:3]),
        ]


def check_rows(s: Scenario) -> None:
    for key, value in s.probes:
        assert s.index.occurrences(key, value) == s.naive.occurrences(key, value)
    for key in s.keys:
        assert s.index.objects_with_key(key) == s.naive.objects_with_key(key), key


def check_key_elsewhere(s: Scenario) -> None:
    for key in s.keys:
        for object_id in s.ids:
            assert s.index.key_elsewhere(key, object_id) == (
                s.naive.key_elsewhere(key, object_id)
            ), (key, object_id)


def check_pair_idf(s: Scenario) -> None:
    rng = random.Random(len(s.probes))
    for _ in range(150):
        left, right = rng.choice(s.probes), rng.choice(s.probes)
        assert s.index.pair_idf(*left, *right) == s.naive.pair_idf(*left, *right)
    for key, value in s.probes:
        assert s.index.term_idf(key, value) == s.naive.pair_idf(
            key, value, key, value
        ), (key, value)


def check_blocking(s: Scenario) -> None:
    assert set(s.index.block_terms()) == s.terms
    assert len(s.index.block_terms()) == len(s.terms)
    for term in sorted(s.terms):
        assert s.index.block_members(term) == s.naive.block_members(term), term
    for od in s.ods:
        assert set(s.index.block_keys(od)) == s.naive.block_keys(od), od.object_id


def check_statistics(s: Scenario) -> None:
    assert s.index.statistics() == s.naive.statistics()


def check_similar_values(s: Scenario) -> None:
    for key, value in s.probes:
        assert s.index.similar_values(key, value) == s.naive.similar_values(
            key, value
        ), (key, value)
        assert s.index.objects_with_similar(key, value) == (
            s.naive.objects_with_similar(key, value)
        ), (key, value)
        for object_id in s.ids[:3] + s.ids[-2:]:
            assert s.index.similar_elsewhere(key, value, object_id) == bool(
                s.naive.objects_with_similar(key, value, object_id)
            ), (key, value, object_id)


def check_similar_verdict(s: Scenario) -> None:
    rng = random.Random(len(s.probes))
    for _ in range(150):
        (key, a), (_, b) = rng.choice(s.probes), rng.choice(s.probes)
        assert s.index.similar_verdict(key, a, b) == (
            s.naive.similar_verdict(key, a, b)
        ), (key, a, b)


READ_FAMILIES = {
    "rows": check_rows,
    "key_elsewhere": check_key_elsewhere,
    "pair_idf": check_pair_idf,
    "blocking": check_blocking,
    "statistics": check_statistics,
    "similar_values": check_similar_values,
    "similar_verdict": check_similar_verdict,
}


def assert_reads_equal(index: CorpusIndex, ods) -> None:
    scenario = Scenario(index, ods)
    for check in READ_FAMILIES.values():
        check(scenario)


_SCENARIOS: dict[tuple, Scenario] = {}


def scenario(
    seed: int, shape: str, history: str, theta_tuple: float = THETA_TUPLE
) -> Scenario:
    """Built once per module run and shared by the read families, which
    only read (the memos they fill are what a served index fills)."""
    key = (seed, shape, history, theta_tuple)
    if key not in _SCENARIOS:
        ods = random_corpus(seed, shape)
        index = HISTORIES[history](ods, theta_tuple)
        assert index.frozen and index.theta_tuple == theta_tuple
        _SCENARIOS[key] = Scenario(index, ods)
    return _SCENARIOS[key]


@pytest.mark.parametrize("family", sorted(READ_FAMILIES))
@pytest.mark.parametrize("history", sorted(HISTORIES))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_read_family_equals_the_oracle(seed, shape, history, family):
    READ_FAMILIES[family](scenario(seed, shape, history))


#: The read families whose answers move with θ_tuple; the rest read
#: term state alone.
THRESHOLD_FAMILIES = ("blocking", "similar_values", "similar_verdict")


@pytest.mark.parametrize("family", THRESHOLD_FAMILIES)
@pytest.mark.parametrize("theta_tuple", (0.0, 0.55))
@pytest.mark.parametrize("history", sorted(HISTORIES))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_reads_equal_the_oracle_at_other_thresholds(
    seed, shape, history, theta_tuple, family
):
    """θ = 0 leaves each held value alone in its group (and a value not
    similar to itself in a verdict); 0.55 is the running example's
    θ_tuple, where groups span several values."""
    READ_FAMILIES[family](scenario(seed, shape, history, theta_tuple))


def brute_force_search(values, probe: str, threshold: float) -> list[str]:
    return [
        value
        for value in values
        if value == probe or ned(probe, value) < threshold
    ]


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_value_pool_searches_equal_brute_force_ned(pool, q):
    values = list(dict.fromkeys(POOLS[pool]))
    index = _build(values, q)
    for threshold in THRESHOLDS:
        for probe in _probes(values):
            assert index.search(probe, threshold) == brute_force_search(
                values, probe, threshold
            ), (pool, q, threshold, probe)


def test_merge_order_does_not_change_a_search():
    values = list(dict.fromkeys(POOLS["random"] + POOLS["dblp"]))
    parts = [values[i::3] for i in range(3)]
    rng = random.Random(5)
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        merged = QGramIndex(q=2)
        for part_index in order:
            merged.merge_from(_build(parts[part_index]))
        for probe in rng.sample(values, 8):
            for threshold in (0.15, 0.5):
                assert sorted(merged.search(probe, threshold)) == sorted(
                    brute_force_search(values, probe, threshold)
                ), (order, probe, threshold)


def test_merge_from_shares_no_bucket_or_repeats():
    """Regression: ``merge_from`` aliased the source's gram state, so
    mutating the source partial after the merge corrupted the target's
    count filter and dropped true matches.  A graft shares no bucket or
    repeated-gram list, and gives the buckets, length classes and
    repeats a build over the same values in the same order gives."""
    source = _build(["aaaab", "dogmatix", "abab", "aaaa"])
    target = _build(["abab", "xyz"])
    target.merge_from(source)
    built = _build(["abab", "xyz", "aaaab", "dogmatix", "aaaa"])
    assert target._values == built._values
    assert target._buckets == built._buckets
    assert list(target._buckets) == list(built._buckets)
    assert target._by_length == built._by_length
    assert list(target._repeats.items()) == list(built._repeats.items()) == [
        ("ab", [[0], [2]]), ("aa", [[2, 4], [3, 3]])
    ]

    def lists(index: QGramIndex) -> set[int]:
        return {
            id(held)
            for held in (
                *index._buckets.values(),
                *index._repeats.values(),
                *(part for pair in index._repeats.values() for part in pair),
            )
        }

    assert not lists(source) & lists(target)
    for bucket in source._buckets.values():  # the source partial stays live
        bucket.clear()
    for holders, counts in source._repeats.values():
        holders.clear()
        counts.clear()
    values = built._values
    for probe in ("dogmatixx", "aaaaa", "aaab", "abab"):
        for threshold in (0.2, 0.5):
            assert target.search(probe, threshold) == brute_force_search(
                values, probe, threshold
            ), (probe, threshold)


def test_set_union_size_is_the_length_of_the_union():
    rng = random.Random(11)
    for _ in range(50):
        left = set(rng.sample(range(30), rng.randint(0, 10)))
        right = set(rng.sample(range(30), rng.randint(0, 10)))
        assert set_union_size(left, right) == len(left | right)
    aliased = {1, 2, 3}
    assert set_union_size(aliased, aliased) == 3
    assert set_union_size((), ()) == 0


def test_pair_idf_is_the_materialized_expression_to_the_float():
    """The counted union gives the float the union-building expression
    gives, unseen terms included."""
    ods = random_corpus(SEEDS[0], "dupes")
    index = frozen(ods)
    naive = NaiveIndex(ods, TypeMapping(), THETA_TUPLE)
    terms = sorted(naive.block_terms()) + [("nokey", "novalue")]
    rng = random.Random(29)
    for _ in range(200):
        left, right = rng.choice(terms), rng.choice(terms)
        assert index.pair_idf(*left, *right) == naive.pair_idf(*left, *right)
        assert index.pair_idf(*right, *left) == naive.pair_idf(*left, *right)


def test_pair_idf_of_a_term_with_itself_is_its_term_idf(monkeypatch):
    """``pair_idf`` of equal terms reads ``len(O)`` through ``term_idf``
    (it walks no row) and gives the float the counted union gave, over
    every term of a Dataset 1 corpus and an unseen one, memoized or not."""

    def walked(left, right):
        raise AssertionError("pair_idf of a term with itself walked its row")

    monkeypatch.setattr(index_module, "set_union_size", walked)
    dataset = build_dataset1(20, seed=7)
    session = DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type
    )
    index = session.index
    total = index.total_objects
    terms = list(index.block_terms()) + [("nokey", "novalue")]
    for key, value in terms:
        row = index.occurrences(key, value)
        denominator = max(1, set_union_size(row, row))
        expected = math.log(max(total, denominator) / denominator)
        assert index.term_idf(key, value) == expected, (key, value)
        for _ in range(2):  # computed, then read from the memo
            assert index.pair_idf(key, value, key, value) == expected, (key, value)


def test_statistics_are_memoized_only_while_frozen():
    ods = random_corpus(SEEDS[0], "uniform", count=12)
    index = frozen(ods)
    first = index.statistics()
    assert index._statistics_cache is not None
    second = index.statistics()
    assert second == first and second is not first  # copies, not aliases
    index.thaw()
    assert index._statistics_cache is None  # invalidated with the pin
    assert index.statistics() == first
    assert index._statistics_cache is None  # not memoized while thawed
    index.freeze()
    assert index.statistics() == first


def test_negative_object_ids_read_like_any_other():
    """Foreign-probe sentinels give ``match()`` corpora negative ids."""
    ods = [
        od_from_pairs(-1, [("abcdefgh", "/db/item[1]/title[1]")]),
        od_from_pairs(5, [("abcdefgh", "/db/item[2]/title[1]")]),
        od_from_pairs(-3, [("abcdefgx", "/db/item[3]/title[1]")]),
    ]
    index = frozen(ods)
    assert index.occurrences("/db/item/title", "abcdefgh") == frozenset({-1, 5})
    assert_reads_equal(index, ods)


def test_freeze_and_thaw_only_flip_the_pin():
    """A frozen index reads the state it was built in; a write thaws
    the same state, not a copy of it."""
    ods = random_corpus(SEEDS[1], "dupes")
    index = CorpusIndex(ods, TypeMapping(), THETA_TUPLE)
    state, held = index._state, {
        key: (value_index._buckets, value_index._repeats)
        for key, value_index in index._state.value_indexes.items()
    }
    for step in (index.freeze, index.thaw, index.freeze):
        step()
        assert index._state is state
        for key, (buckets, repeats) in held.items():
            value_index = index._state.value_indexes[key]
            assert value_index._buckets is buckets
            assert value_index._repeats is repeats
    with pytest.raises(RuntimeError, match="frozen"):
        index.merge_partial(IndexPartial())
