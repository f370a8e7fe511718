"""Differential fuzz harness: compact encoding vs the dict oracle.

The compact array-backed encoding (``repro/compact.py`` +
``repro/core/encodings.py``) is a pure representation change: at
``freeze()`` time the index swaps its dict term state for interned
string tables and flat sorted posting arrays, and every read answers
from binary search and sorted merges instead of hashing.  For every corpus, query, and
threshold it must be **bit-identical** to the dict encoding — the same
contract the signature strategy is pinned by
(``test_similarity_strategies.py``), extended over the encoding axis:

* data-structure invariants of the compact primitives (string tables,
  posting lists, union counting, payload round trips);
* value-index parity through ``compact()``/``decompact()``/payload
  round trips, both strategies;
* index-level parity over the shard-harness corpus shapes — searches,
  blocking views, occurrence sets, ``pair_idf`` to the exact float
  (cross-checked against the old union-materializing expression),
  statistics — through ``thaw()`` → delta merge → re-``freeze()``;
* session-level bit-identical results across serial / process / shard
  backends, the parallel ingest path, ``extend()``, and warm
  ``IndexStore`` loads (where compact sessions reconstruct the frozen
  index straight from the snapshot payload instead of rebuilding).
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter

import pytest
from test_shard_equivalence import (
    SEEDS,
    SHAPES,
    assert_results_identical,
    random_corpus,
    session_over,
)
from test_similarity_strategies import POOLS, THRESHOLDS, _build, _probes

from repro.compact import (
    CompactGramStore,
    CompactValueIndex,
    PostingLists,
    StringTable,
    decode_array,
    encode_array,
)
from repro.core import DogmatixConfig
from repro.core.compact_terms import CompactTermIndex
from repro.core.encodings import (
    INDEX_ENCODINGS,
    DictTermState,
    default_index_encoding,
    set_union_size,
)
from repro.core.index import CorpusIndex, IndexPartial
from repro.engine import ExecutionPolicy
from repro.framework import TypeMapping, od_from_pairs
from repro.strings import SIMILARITY_STRATEGIES, QGramIndex, SignatureIndex


# ----------------------------------------------------------------------
# Compact primitives
# ----------------------------------------------------------------------
class TestStringTable:
    def test_codes_are_sorted_ranks(self):
        table = StringTable.build(["b", "a", "c", "a"])
        assert list(table.strings()) == ["a", "b", "c"]
        assert [table.code_of(s) for s in ("a", "b", "c")] == [0, 1, 2]
        assert table.code_of("missing") == -1
        assert "b" in table and "zz" not in table
        assert table[2] == "c"
        assert len(table) == 3

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            StringTable(("b", "a"))
        with pytest.raises(ValueError):
            StringTable(("a", "a"))


class TestPostingLists:
    def test_round_trip_and_queries(self):
        # build() trusts pre-sorted rows (the compactors sort).
        rows = [[1, 2, 3], [], [7], [5, 5, 6]]
        lists = PostingLists.build(rows)
        assert len(lists) == 4
        assert lists.row(0) == (1, 2, 3)
        assert lists.row(1) == ()
        assert lists.row(3) == (5, 5, 6)
        assert lists.row_length(2) == 1
        assert lists.contains(0, 2) and not lists.contains(0, 4)
        # flat positions: row 2 starts after rows 0 and 1
        assert lists.position(0, 2) == 1 and lists.position(2, 7) == 3
        assert lists.item(lists.position(2, 7)) == 7
        assert lists.position(0, 7) == -1 and lists.position(1, 1) == -1
        gathered: set[int] = set()
        lists.update_set(0, gathered)
        lists.update_set(2, gathered)
        assert gathered == {1, 2, 3, 7}
        counted: Counter[int] = Counter()
        lists.update_set(3, counted)
        lists.update_set(0, counted)
        assert counted == {5: 2, 6: 1, 1: 1, 2: 1, 3: 1}

    def test_union_size_matches_set_union(self):
        rng = random.Random(3)
        rows = [sorted(rng.sample(range(40), rng.randint(0, 12)))
                for _ in range(20)]
        lists = PostingLists.build(rows)
        for left in range(len(rows)):
            for right in range(len(rows)):
                expected = len(set(rows[left]) | set(rows[right]))
                assert lists.union_size(left, right) == expected

    def test_payload_round_trip(self):
        lists = PostingLists.build([[1, 2], [9]])
        again = PostingLists.from_payload(lists.to_payload())
        assert again.row(0) == (1, 2) and again.row(1) == (9,)

    def test_negative_row_raises(self):
        lists = PostingLists.build([[1]])
        with pytest.raises(IndexError):
            lists.row(-1)


class TestCompactGramStore:
    def test_count_reads_the_stored_multiplicity(self):
        store = CompactGramStore.build([Counter("aab"), Counter("bc")])
        code_of = store.vocabulary().code_of
        assert store.count(0, code_of("a")) == 2
        assert store.count(0, code_of("b")) == 1
        assert store.count(0, code_of("c")) == 0
        assert store.count(1, code_of("c")) == 1
        assert store.count(1, code_of("a")) == 0


class TestArrayCodec:
    def test_round_trip(self):
        values = array("I", [0, 1, 2 ** 32 - 1])
        assert decode_array(encode_array(values)) == values

    def test_malformed_payload_is_none_not_a_crash(self):
        good = encode_array(array("Q", [1]))
        assert decode_array(good) is not None
        for broken in (
            None,
            [],
            {},
            {"typecode": "Q"},
            {**good, "typecode": "x"},
            {**good, "itemsize": 3},
            {**good, "data": "!!!"},
        ):
            assert decode_array(broken) is None


class TestSetUnionSize:
    def test_matches_len_of_union(self):
        rng = random.Random(11)
        for _ in range(50):
            left = set(rng.sample(range(30), rng.randint(0, 10)))
            right = set(rng.sample(range(30), rng.randint(0, 10)))
            assert set_union_size(left, right) == len(left | right)
        aliased = {1, 2, 3}
        assert set_union_size(aliased, aliased) == 3
        assert set_union_size((), ()) == 0


# ----------------------------------------------------------------------
# Value-index parity through compaction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", sorted(SIMILARITY_STRATEGIES))
@pytest.mark.parametrize("pool", sorted(POOLS))
class TestValueIndexCompaction:
    def test_search_parity_compact_vs_dict(self, strategy, pool):
        values = POOLS[pool]
        cls = SIMILARITY_STRATEGIES[strategy]
        oracle = _build(cls, values, 2)
        compacted = _build(cls, values, 2)
        compacted.compact()
        assert compacted.compacted
        for threshold in THRESHOLDS:
            for probe in _probes(values):
                assert compacted.search(probe, threshold) == oracle.search(
                    probe, threshold
                ), (
                    f"encoding divergence: strategy={strategy} pool={pool} "
                    f"threshold={threshold} probe={probe!r}"
                )

    def test_decompact_restores_dict_state(self, strategy, pool):
        values = POOLS[pool]
        cls = SIMILARITY_STRATEGIES[strategy]
        oracle = _build(cls, values, 2)
        round_tripped = _build(cls, values, 2)
        round_tripped.compact()
        round_tripped.decompact()
        assert not round_tripped.compacted
        assert round_tripped._state.ids == oracle._state.ids
        assert round_tripped._state.grams == oracle._state.grams
        assert round_tripped._state.by_length == oracle._state.by_length
        assert round_tripped._state.buckets == oracle._state.buckets
        # Mutable again: the delta-merge path needs add() back.
        round_tripped.add("freshly-added")
        assert "freshly-added" in round_tripped

    def test_payload_round_trip_parity(self, strategy, pool):
        values = POOLS[pool]
        cls = SIMILARITY_STRATEGIES[strategy]
        oracle = _build(cls, values, 2)
        source = _build(cls, values, 2)
        source.compact()
        payload = source.compact_payload()
        assert payload is not None
        loaded = cls.from_compact_payload(payload)
        assert loaded.compacted
        for threshold in (0.15, 0.5):
            for probe in _probes(values)[::2]:
                assert loaded.search(probe, threshold) == oracle.search(
                    probe, threshold
                )


class TestValueIndexCompactionGuards:
    @pytest.mark.parametrize("strategy", sorted(SIMILARITY_STRATEGIES))
    def test_mutation_while_compact_fails_loudly(self, strategy):
        index = _build(SIMILARITY_STRATEGIES[strategy], ["abc", "abd"], 2)
        index.compact()
        with pytest.raises(RuntimeError, match="decompact"):
            index.add("xyz")
        other = _build(SIMILARITY_STRATEGIES[strategy], ["q"], 2)
        with pytest.raises(RuntimeError, match="decompact"):
            index.merge_from(other)

    def test_compact_is_idempotent(self):
        index = _build(QGramIndex, ["abc", "abd"], 2)
        index.compact()
        state = index._state
        index.compact()
        assert index._state is state

    def test_from_compact_payload_rejects_wrong_strategy(self):
        index = _build(QGramIndex, ["abc"], 2)
        index.compact()
        payload = index.compact_payload()
        with pytest.raises(ValueError, match="strategy"):
            SignatureIndex.from_compact_payload(payload)


# ----------------------------------------------------------------------
# CorpusIndex-level parity
# ----------------------------------------------------------------------
def _indexes_over(ods, theta_tuple=0.25):
    dict_index = CorpusIndex(ods, TypeMapping(), theta_tuple)
    dict_index.freeze()
    compact_index = CorpusIndex(
        ods, TypeMapping(), theta_tuple, encoding="compact"
    )
    compact_index.freeze()
    assert _holds_compact_state(compact_index)
    return dict_index, compact_index


def _holds_compact_state(index):
    """Whether the index reads through flat arrays (terms and values)."""
    return isinstance(index._terms, CompactTermIndex) and all(
        value_index.compacted for value_index in index._value_indexes.values()
    )


def _assert_index_parity(dict_index, compact_index):
    assert set(compact_index.block_terms()) == set(dict_index.block_terms())
    assert compact_index.statistics() == dict_index.statistics()
    terms = sorted(set(dict_index.block_terms()))
    for key, value in terms:
        assert compact_index.occurrences(key, value) == dict_index.occurrences(
            key, value
        )
        assert compact_index.similar_values(
            key, value
        ) == dict_index.similar_values(key, value)
        assert compact_index.objects_with_similar(
            key, value
        ) == dict_index.objects_with_similar(key, value)
        assert compact_index.objects_with_similar(
            key, value, exclude=0
        ) == dict_index.objects_with_similar(key, value, exclude=0)
    for key in sorted({key for key, _ in terms}):
        assert compact_index.objects_with_key(key) == dict_index.objects_with_key(
            key
        )
    # Probes for absent terms must agree too.
    assert compact_index.occurrences("nokey", "novalue") == frozenset()
    assert dict_index.occurrences("nokey", "novalue") == frozenset()
    rng = random.Random(13)
    probe_terms = terms + [("nokey", "novalue")]
    for _ in range(150):
        (key_i, value_i) = rng.choice(probe_terms)
        (key_j, value_j) = rng.choice(probe_terms)
        expected = dict_index.pair_idf(key_i, value_i, key_j, value_j)
        assert (
            compact_index.pair_idf(key_i, value_i, key_j, value_j) == expected
        )


class TestCorpusIndexParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_reads_identical_over_corpus_shapes(self, seed, shape):
        ods = random_corpus(seed, shape)
        dict_index, compact_index = _indexes_over(ods)
        _assert_index_parity(dict_index, compact_index)

    def test_pair_idf_matches_the_materializing_expression(self):
        """Satellite contract: the counted union equals the old
        ``len(O_i | O_j)`` expression to the exact float, unseen terms
        included."""
        ods = random_corpus(SEEDS[0], "dupes")
        dict_index, compact_index = _indexes_over(ods)
        terms = sorted(set(dict_index.block_terms()))
        rng = random.Random(29)
        for _ in range(200):
            key_i, value_i = rng.choice(terms)
            key_j, value_j = rng.choice(terms)
            union = dict_index.occurrences(key_i, value_i) | dict_index.occurrences(
                key_j, value_j
            )
            denominator = max(1, len(union))
            total = max(dict_index.total_objects, denominator)
            expected = math.log(total / denominator)
            assert dict_index.pair_idf(key_i, value_i, key_j, value_j) == expected
            assert (
                compact_index.pair_idf(key_i, value_i, key_j, value_j)
                == expected
            )

    @pytest.mark.parametrize("encoding", sorted(INDEX_ENCODINGS))
    @pytest.mark.parametrize("strategy", sorted(SIMILARITY_STRATEGIES))
    def test_thaw_merge_refreeze_parity(self, strategy, encoding):
        """The freeze() state swap survives the extend() seam: thaw
        returns to the writable dict state, the delta folds in,
        re-freeze swaps again — and every strategy x encoding pair then
        reads exactly like a fresh build over the grown corpus, its own
        and the qgram/dict oracle's."""
        ods = random_corpus(SEEDS[0], "dupes", count=24)
        delta_ods = [
            od_from_pairs(
                100 + i,
                [(value, f"/db/item[{100 + i + 1}]/{kind}[1]")
                 for kind, value in sorted(record.items())],
            )
            for i, record in enumerate(
                {"title": "abcdefgh", "artist": "hgfedcba"} for _ in range(6)
            )
        ]

        def build(over, **choice):
            index = CorpusIndex(over, TypeMapping(), 0.25, **choice)
            index.freeze()
            return index

        grown = build(ods, strategy=strategy, encoding=encoding)
        grown.similar_values(*grown.block_terms()[0])  # a memo to invalidate
        grown.thaw()
        assert isinstance(grown._terms, DictTermState)
        grown.merge_partial(
            IndexPartial.from_ods(
                delta_ods, TypeMapping(), strategy=strategy, encoding=encoding
            )
        )
        grown.freeze()
        assert type(grown._terms) is INDEX_ENCODINGS[encoding]
        assert _holds_compact_state(grown) == (encoding == "compact")
        everything = ods + delta_ods
        _assert_index_parity(build(everything), grown)
        _assert_index_parity(
            build(everything, strategy=strategy, encoding=encoding), grown
        )

    def test_statistics_memoized_only_while_frozen(self):
        ods = random_corpus(SEEDS[0], "uniform", count=12)
        index = CorpusIndex(ods, TypeMapping(), 0.25, encoding="compact")
        index.freeze()
        first = index.statistics()
        assert index._statistics_cache is not None
        second = index.statistics()
        assert second == first and second is not first  # copies, not aliases
        index.thaw()
        assert index._statistics_cache is None  # invalidated with the pin
        index.freeze()
        assert index.statistics() == first

    def test_negative_object_ids_survive_compaction(self):
        """Foreign-probe sentinels give match() corpora negative object
        ids; dict sets carry them transparently, so the signed posting
        arrays must too (regression: array('I') overflowed)."""
        ods = [
            od_from_pairs(-1, [("abcdefgh", "/db/item[1]/title[1]")]),
            od_from_pairs(5, [("abcdefgh", "/db/item[2]/title[1]")]),
        ]
        dict_index, compact_index = _indexes_over(ods)
        assert compact_index.occurrences(
            "/db/item/title", "abcdefgh"
        ) == frozenset({-1, 5})
        _assert_index_parity(dict_index, compact_index)

    def test_merge_rejects_encoding_mismatch(self):
        index = CorpusIndex((), TypeMapping(), 0.25, encoding="compact")
        with pytest.raises(ValueError, match="dict.*compact|compact.*dict"):
            index.merge_partial(IndexPartial(encoding="dict"))
        with pytest.raises(ValueError, match="dict.*compact|compact.*dict"):
            IndexPartial(encoding="dict").merge(IndexPartial(encoding="compact"))


# ----------------------------------------------------------------------
# CompactTermIndex payloads
# ----------------------------------------------------------------------
class TestCompactTermIndexPayload:
    def test_round_trip_preserves_every_row(self):
        ods = random_corpus(SEEDS[1], "skewed")
        _, compact_index = _indexes_over(ods)
        terms = compact_index._terms
        again = CompactTermIndex.from_payload(terms.to_payload())
        assert len(again) == len(terms)
        assert set(again.block_terms()) == set(terms.block_terms())
        for key, value in terms.block_terms():
            assert again.occurrence_row(key, value) == terms.occurrence_row(
                key, value
            )
            assert again.key_row(key) == terms.key_row(key)

    def test_decompact_restores_dict_maps(self):
        ods = random_corpus(SEEDS[0], "giant", count=18)
        dict_index, compact_index = _indexes_over(ods)
        restored = compact_index._terms.decompact()
        assert isinstance(restored, DictTermState)
        assert restored.occurrences == dict_index._terms.occurrences
        assert restored.objects_by_key == dict_index._terms.objects_by_key


# ----------------------------------------------------------------------
# Registry / config / env threading
# ----------------------------------------------------------------------
class TestEncodingRegistry:
    def test_registry_contents(self):
        assert set(INDEX_ENCODINGS) == {"dict", "compact"}
        # The registry names the state a frozen index holds.
        for name, state_class in INDEX_ENCODINGS.items():
            index = CorpusIndex((), TypeMapping(), 0.25, encoding=name)
            index.freeze()
            assert type(index._terms) is state_class

    def test_env_override_sets_the_config_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_ENCODING", "compact")
        assert default_index_encoding() == "compact"
        assert DogmatixConfig().index_encoding == "compact"
        monkeypatch.setenv("REPRO_INDEX_ENCODING", "dict")
        assert DogmatixConfig().index_encoding == "dict"
        monkeypatch.setenv("REPRO_INDEX_ENCODING", "roaring")
        with pytest.raises(ValueError, match="index_encoding"):
            DogmatixConfig()

    def test_corpus_index_rejects_unknown_encoding(self):
        with pytest.raises(LookupError, match="roaring.*compact, dict"):
            CorpusIndex((), TypeMapping(), 0.25, encoding="roaring")

    def test_api_registry_and_spec_validation(self):
        from repro.api import RunSpec
        from repro.api.registries import ENCODINGS

        assert set(ENCODINGS.names()) == {"dict", "compact"}
        with pytest.raises(LookupError, match="compact"):
            RunSpec(
                documents=["x.xml"],
                mapping="m.xml",
                real_world_type="T",
                index_encoding="roaring",
            )


# ----------------------------------------------------------------------
# Session-level parity (the knob end to end)
# ----------------------------------------------------------------------
class TestSessionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_detection_results_bit_identical(self, seed, shape):
        ods = random_corpus(seed, shape)
        reference = session_over(ods).detect()
        compact = session_over(ods, index_encoding="compact")
        assert compact.index.encoding == "compact"
        assert _holds_compact_state(compact.index)
        assert_results_identical(reference, compact.detect())

    def test_across_execution_backends(self):
        """Worker-rebuilt indexes inherit the encoding: serial dict ==
        compact under process, shard, and worker-side-filter
        policies."""
        ods = random_corpus(SEEDS[0], "dupes")
        reference = session_over(ods).detect()
        compact = session_over(ods, index_encoding="compact")
        for policy in (
            ExecutionPolicy.sharded(2),
            ExecutionPolicy.sharded(2, filter_in_workers=True),
            ExecutionPolicy(workers=2, batch_size=32, backend="process"),
        ):
            assert_results_identical(reference, compact.detect(policy=policy))

    def test_compact_composes_with_signature_strategy(self):
        """The two axes are independent: compact+signature matches the
        dict+qgram oracle bit for bit."""
        ods = random_corpus(SEEDS[1], "dupes")
        reference = session_over(ods).detect()
        both = session_over(
            ods, index_encoding="compact", similarity_strategy="signature"
        )
        assert_results_identical(reference, both.detect())

    def test_extend_delta_parity(self):
        """extend() thaws (decompacting), folds the delta, re-freezes
        (re-compacting) — and answers exactly like the dict session."""
        from repro.api import DetectionSession
        from repro.core import RDistantDescendants, Source
        from repro.datagen import (
            paper_example_document,
            paper_example_mapping,
            paper_example_schema,
        )
        from repro.xmlkit import parse

        def build(encoding):
            return DetectionSession(
                Source(paper_example_document(), paper_example_schema()),
                paper_example_mapping(),
                "MOVIE",
                DogmatixConfig(
                    heuristic=RDistantDescendants(2),
                    theta_tuple=0.55,
                    theta_cand=0.55,
                    index_encoding=encoding,
                ),
            )

        extension = (
            "<moviedoc><movie><title>Troy 2</title><year>2004</year>"
            "</movie></moviedoc>"
        )
        reference, compact = build("dict"), build("compact")
        for session in (reference, compact):
            session.extend(parse(extension))
        assert compact.index.encoding == "compact"
        assert _holds_compact_state(compact.index)  # re-frozen, re-compacted
        assert_results_identical(reference.detect(), compact.detect())
        for od in reference.ods:
            assert [
                (m.object_id, m.similarity, m.path)
                for m in compact.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in reference.match(od.object_id)
            ]

    def test_parallel_ingest_carries_the_encoding(self):
        """Worker partials stay dict-encoded (compaction happens at
        freeze on the merged index) but tag the target encoding, and
        the built index comes out compact."""
        from repro.api import Corpus
        from repro.eval import build_dataset1
        from repro.ingest import ParallelIngestor

        dataset = build_dataset1(12, seed=7)
        reference_config = DogmatixConfig(index_encoding="dict")
        compact_config = DogmatixConfig(index_encoding="compact")
        corpus = Corpus(dataset.sources)
        _, serial_index = ParallelIngestor(workers=1).build(
            corpus, dataset.mapping, dataset.real_world_type, reference_config
        )
        ingestor = ParallelIngestor(workers=2)
        _, index = ingestor.build(
            corpus, dataset.mapping, dataset.real_world_type, compact_config
        )
        assert ingestor.last_report.backend == "parallel"
        assert index.encoding == "compact"
        assert serial_index.encoding == "dict"
        assert index.statistics() == serial_index.statistics()


# ----------------------------------------------------------------------
# Warm store loads
# ----------------------------------------------------------------------
class TestWarmStoreParity:
    @pytest.fixture()
    def example_dir(self, tmp_path):
        from repro.datagen import (
            PAPER_EXAMPLE_XML,
            PAPER_EXAMPLE_XSD,
            paper_example_mapping,
        )

        (tmp_path / "movies.xml").write_text(
            PAPER_EXAMPLE_XML, encoding="utf-8"
        )
        (tmp_path / "movies.xsd").write_text(
            PAPER_EXAMPLE_XSD, encoding="utf-8"
        )
        (tmp_path / "mapping.xml").write_text(
            paper_example_mapping().to_xml(), encoding="utf-8"
        )
        return tmp_path

    def _spec(self, example_dir, **overrides):
        from repro.api import RunSpec

        fields = dict(
            documents=[str(example_dir / "movies.xml")],
            mapping=str(example_dir / "mapping.xml"),
            real_world_type="MOVIE",
            schemas=[str(example_dir / "movies.xsd")],
            heuristic="rdistant:2",
            theta_tuple=0.55,
            theta_cand=0.55,
        )
        fields.update(overrides)
        return RunSpec(**fields)

    def test_encoding_stays_out_of_the_content_key(self, example_dir):
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        assert store.key_for(
            self._spec(example_dir, index_encoding="dict")
        ) == store.key_for(self._spec(example_dir, index_encoding="compact"))

    def test_compact_warm_load_reuses_the_snapshot_payload(self, example_dir):
        """The tentpole's snapshot leg: a compact session saved to the
        store reloads by decoding the frozen arrays straight from the
        payload (``loaded_from_snapshot``) — no OD re-indexing — and
        answers bit-identically."""
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        spec = self._spec(example_dir, index_encoding="compact")
        cold = spec.build_session()
        assert _holds_compact_state(cold.index)
        store.save(spec, cold)
        warm = store.load(spec)
        assert warm is not None
        assert warm.index.loaded_from_snapshot
        assert warm.index.encoding == "compact"
        assert _holds_compact_state(warm.index)
        assert warm.index.statistics() == cold.index.statistics()
        assert_results_identical(cold.detect(), warm.detect())
        for od in cold.ods:
            assert [
                (m.object_id, m.similarity, m.path)
                for m in warm.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in cold.match(od.object_id)
            ]

    def test_one_snapshot_serves_both_encodings(self, example_dir):
        """A snapshot saved from a compact session still warms a dict
        spec: the embedded compact payload is skipped (encoding gate)
        and the index rebuilds from the stored ODs, bit-identically."""
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        compact_spec = self._spec(example_dir, index_encoding="compact")
        cold = compact_spec.build_session()
        store.save(compact_spec, cold)
        reference = cold.detect()

        # Pin the dict encoding explicitly: this test must hold even
        # when REPRO_INDEX_ENCODING=compact is the session default.
        dict_warm = store.load(self._spec(example_dir, index_encoding="dict"))
        assert dict_warm is not None
        assert not dict_warm.index.loaded_from_snapshot
        assert dict_warm.index.encoding == "dict"
        assert isinstance(dict_warm.index._terms, DictTermState)
        assert_results_identical(reference, dict_warm.detect())

    def test_dict_snapshot_warms_a_compact_spec_by_rebuild(self, example_dir):
        """The reverse direction: dict snapshots carry no compact
        payload, so a compact spec rebuilds from ODs — and compacts at
        freeze like any cold build."""
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        dict_spec = self._spec(example_dir, index_encoding="dict")
        cold = dict_spec.build_session()
        store.save(dict_spec, cold)

        warm = store.load(self._spec(example_dir, index_encoding="compact"))
        assert warm is not None
        assert not warm.index.loaded_from_snapshot
        assert warm.index.encoding == "compact"
        assert _holds_compact_state(warm.index)
        assert_results_identical(cold.detect(), warm.detect())

    def test_warm_compact_session_supports_extend(self, example_dir):
        from repro.core import Source
        from repro.ingest import IndexStore
        from repro.xmlkit import parse

        store = IndexStore(example_dir / "store")
        # Filter off, matching test_ingest_store: the paper example's
        # late arrival only survives match() unfiltered.
        spec = self._spec(
            example_dir, index_encoding="compact", use_object_filter=False
        )
        store.save(spec, spec.build_session())
        warm = store.load(spec)
        assert warm.index.loaded_from_snapshot
        late = parse(
            "<moviedoc><movie><title>Sings</title><year>2002</year>"
            "</movie></moviedoc>"
        )
        update = warm.extend(Source(late, warm.corpus.sources[0].schema))
        assert update.added[0].object_id == 3
        assert _holds_compact_state(warm.index)  # re-frozen, re-compacted
        assert 3 in [m.object_id for m in warm.match(2)]
