"""Differential fuzz harness: signature strategy vs the q-gram oracle.

The prefix-signature index (``strings/signatures.py``) is a pure
performance strategy: for every corpus, query, and threshold it must
return **exactly** the similar-value lists the q-gram oracle returns —
and, threaded through ``CorpusIndex`` by the ``similarity_strategy``
knob, bit-identical ``DetectionResult``s across every execution
backend, warm ``IndexStore`` loads, and ``extend()`` delta-merges.
This file pins that contract:

* index-level search/group parity over shard-harness corpus shapes,
  unicode/empty/whitespace edges, DBLP-flavored values (entity-decoded
  umlauts, ``"Michael J. Carey 0001"``-style ordinal suffixes,
  mixed-length author lists), and q ∈ {1, 2, 3}, cross-checked against
  brute force;
* merge-order independence and the copy-on-graft isolation of
  ``merge_from`` (the aliasing regression, both strategies);
* session-level bit-identical results across serial / process / shard
  backends, the parallel ingest path, warm store loads, and extends;
* the bound tiers: the signature search never runs more DP
  verifications than the oracle.
"""

from __future__ import annotations

import random

import pytest
from test_shard_equivalence import (
    SEEDS,
    SHAPES,
    assert_results_identical,
    random_corpus,
    session_over,
)

from repro.core import DogmatixConfig
from repro.core.index import CorpusIndex, IndexPartial
from repro.engine import ExecutionPolicy
from repro.framework import TypeMapping, od_from_pairs
from repro.strings import (
    SIMILARITY_STRATEGIES,
    QGramIndex,
    SignatureIndex,
    make_value_index,
    normalized_edit_distance,
)

THRESHOLDS = (0.0, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0)

#: DBLP-flavored values (the satellite corpus): decoded umlauts vs
#: ASCII foldings, homonym ordinal suffixes, venue abbreviations, and
#: author lists of mixed cardinality.
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
               "étude", "étude", "noël", "noel"]


def _random_values(seed: int, count: int = 40) -> list[str]:
    rng = random.Random(seed)
    alphabet = "abcdeü ß.0"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for _ in range(count)
    ]


def _shard_shape_values(shape: str, seed: int = SEEDS[0]) -> list[str]:
    return [
        odt.value
        for od in random_corpus(seed, shape, count=24)
        for odt in od.tuples
    ]


POOLS = {
    "random": _random_values(17),
    "edges": EDGE_VALUES,
    "dblp": DBLP_VALUES,
    **{f"shape-{shape}": _shard_shape_values(shape) for shape in SHAPES},
}


def _build(cls, values, q: int):
    index = cls(q=q)
    for value in values:
        index.add(value)
    return index


def _probes(values: list[str]) -> list[str]:
    foreign = [value + "x" for value in values[:5]] + ["zq", "", "ü.0"]
    return list(values) + foreign


# ----------------------------------------------------------------------
# Index-level parity
# ----------------------------------------------------------------------
class TestSearchParity:
    @pytest.mark.parametrize("q", (1, 2, 3))
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_identical_result_lists(self, q, pool):
        """The tentpole invariant: same lists, value for value."""
        values = POOLS[pool]
        oracle = _build(QGramIndex, values, q)
        signature = _build(SignatureIndex, values, q)
        for threshold in THRESHOLDS:
            for probe in _probes(values):
                assert signature.search(probe, threshold) == oracle.search(
                    probe, threshold
                ), (
                    f"strategy divergence: pool={pool} q={q} "
                    f"threshold={threshold} probe={probe!r}"
                )

    @pytest.mark.parametrize("pool", ("random", "dblp", "edges"))
    def test_brute_force_cross_check(self, pool):
        """Both strategies agree with the definition, not just each
        other."""
        values = POOLS[pool]
        oracle = _build(QGramIndex, values, 2)
        signature = _build(SignatureIndex, values, 2)
        distinct = list(dict.fromkeys(values))
        for threshold in (0.15, 0.5):
            for probe in _probes(values)[::3]:
                expected = sorted(
                    value
                    for value in distinct
                    if probe == value
                    or normalized_edit_distance(probe, value) < threshold
                )
                assert sorted(signature.search(probe, threshold)) == expected
                assert sorted(oracle.search(probe, threshold)) == expected

    def test_similarity_groups_identical(self):
        values = POOLS["dblp"]
        oracle = _build(QGramIndex, values, 2)
        signature = _build(SignatureIndex, values, 2)
        for threshold in THRESHOLDS:
            assert signature.similarity_groups(
                threshold
            ) == oracle.similarity_groups(threshold)

    def test_positional_second_level_stays_exact(self):
        """A cutoff low enough to cover every DBLP title exercises the
        ppjoin-style filter without losing a single match."""
        values = POOLS["dblp"] + POOLS["random"]
        oracle = _build(QGramIndex, values, 2)
        aggressive = SignatureIndex(q=2, second_level_cutoff=2)
        for value in values:
            aggressive.add(value)
        for threshold in THRESHOLDS:
            for probe in _probes(values):
                assert aggressive.search(probe, threshold) == oracle.search(
                    probe, threshold
                )

    def test_signature_never_verifies_more_than_the_oracle(self):
        """The bound tiers run before the DP, so the signature search's
        verification count is bounded by the oracle's on any workload
        (the benchmark asserts strictly fewer at n=2000)."""
        values = POOLS["random"] + POOLS["dblp"]
        oracle = _build(QGramIndex, values, 2)
        signature = _build(SignatureIndex, values, 2)
        for threshold in (0.15, 0.25, 0.5):
            for probe in _probes(values):
                oracle.search(probe, threshold)
                signature.search(probe, threshold)
        assert signature.verifications <= oracle.verifications
        assert signature.probes == oracle.probes

    def test_factory_and_registry(self):
        assert set(SIMILARITY_STRATEGIES) == {"qgram", "signature"}
        assert type(make_value_index("signature", q=3)) is SignatureIndex
        assert make_value_index("qgram").q == 2
        with pytest.raises(LookupError, match="signature"):
            make_value_index("bk-tree")


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------
class TestMergeParity:
    @pytest.mark.parametrize("strategy", sorted(SIMILARITY_STRATEGIES))
    def test_merge_order_independent_search(self, strategy):
        values = POOLS["random"] + POOLS["dblp"]
        cls = SIMILARITY_STRATEGIES[strategy]
        direct = _build(cls, values, 2)
        rng = random.Random(5)
        parts = [values[i::3] for i in range(3)]
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            merged = cls(q=2)
            for part_index in order:
                partial = _build(cls, parts[part_index], 2)
                merged.merge_from(partial)
            for probe in rng.sample(values, 8):
                for threshold in (0.15, 0.5):
                    assert sorted(merged.search(probe, threshold)) == sorted(
                        direct.search(probe, threshold)
                    )

    @pytest.mark.parametrize("strategy", sorted(SIMILARITY_STRATEGIES))
    def test_merge_from_copies_gram_counters(self, strategy):
        """Regression: ``merge_from`` aliased the source's gram
        counters, so mutating the source partial after the merge
        corrupted the target's count filter and dropped true matches."""
        cls = SIMILARITY_STRATEGIES[strategy]
        source = cls(q=2)
        source.add("dogmatix")
        target = cls(q=2)
        target.merge_from(source)
        assert target._state.counter(0) is not source._state.counter(0)
        source._state.counter(0).clear()  # the source partial stays live
        assert target.search("dogmatixx", 0.2) == ["dogmatix"]

    def test_strategies_do_not_merge_into_each_other(self):
        with pytest.raises(ValueError, match="strategy|signature|qgram"):
            QGramIndex().merge_from(SignatureIndex())  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="strategy|signature|qgram"):
            SignatureIndex().merge_from(QGramIndex())  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="signature.*qgram"):
            IndexPartial(strategy="qgram").merge(IndexPartial(strategy="signature"))


# ----------------------------------------------------------------------
# Session-level parity (the knob end to end)
# ----------------------------------------------------------------------
def _dblp_ods():
    rng = random.Random(31)
    ods = []
    for i in range(24):
        title = rng.choice(DBLP_VALUES[10:14])
        author = rng.choice(DBLP_VALUES[:10])
        pairs = [
            (title, f"/db/item[{i + 1}]/title[1]"),
            (author, f"/db/item[{i + 1}]/artist[1]"),
        ]
        ods.append(od_from_pairs(i, pairs))
    return ods


class TestSessionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_detection_results_bit_identical(self, seed, shape):
        ods = random_corpus(seed, shape)
        reference = session_over(ods).detect()
        signature = session_over(ods, similarity_strategy="signature")
        assert signature.index.strategy == "signature"
        assert_results_identical(reference, signature.detect())

    def test_dblp_corpus_bit_identical(self):
        ods = _dblp_ods()
        reference = session_over(ods).detect()
        assert reference.duplicate_pairs  # the shape produces real work
        signature = session_over(ods, similarity_strategy="signature")
        assert_results_identical(reference, signature.detect())

    def test_across_execution_backends(self):
        """Worker-rebuilt indexes inherit the strategy: serial qgram ==
        signature under process, shard, and worker-side-filter
        policies."""
        ods = random_corpus(SEEDS[0], "dupes")
        reference = session_over(ods).detect()
        signature = session_over(ods, similarity_strategy="signature")
        for policy in (
            ExecutionPolicy.sharded(2),
            ExecutionPolicy.sharded(2, filter_in_workers=True),
            ExecutionPolicy(workers=2, batch_size=32, backend="process"),
        ):
            assert_results_identical(
                reference, signature.detect(policy=policy)
            )

    def test_extend_delta_parity(self):
        """The delta IndexPartial of extend() is built with the
        session's strategy and folds into the same answers."""
        from repro.datagen import (
            paper_example_document,
            paper_example_mapping,
            paper_example_schema,
        )
        from repro.api import DetectionSession
        from repro.core import RDistantDescendants, Source
        from repro.xmlkit import parse

        def build(strategy):
            return DetectionSession(
                Source(paper_example_document(), paper_example_schema()),
                paper_example_mapping(),
                "MOVIE",
                DogmatixConfig(
                    heuristic=RDistantDescendants(2),
                    theta_tuple=0.55,
                    theta_cand=0.55,
                    similarity_strategy=strategy,
                ),
            )

        extension = (
            "<moviedoc><movie><title>Troy 2</title><year>2004</year>"
            "</movie></moviedoc>"
        )
        reference, signature = build("qgram"), build("signature")
        assert signature.index.strategy == "signature"
        for session in (reference, signature):
            session.extend(parse(extension))
        assert signature.index.strategy == "signature"
        assert_results_identical(reference.detect(), signature.detect())
        for od in reference.ods:
            assert [
                (m.object_id, m.similarity, m.path)
                for m in signature.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in reference.match(od.object_id)
            ]

    def test_parallel_ingest_carries_the_strategy(self):
        """Worker partials, the merged partial, and the final index all
        tag the configured strategy; results match the serial oracle."""
        from repro.api import Corpus
        from repro.eval import build_dataset1
        from repro.ingest import ParallelIngestor

        dataset = build_dataset1(12, seed=7)
        # Explicit, not the default: the signature-strategy CI leg runs
        # this file with REPRO_SIMILARITY_STRATEGY=signature exported.
        reference_config = DogmatixConfig(similarity_strategy="qgram")
        signature_config = DogmatixConfig(similarity_strategy="signature")
        corpus = Corpus(dataset.sources)
        _, serial_index = ParallelIngestor(workers=1).build(
            corpus, dataset.mapping, dataset.real_world_type, reference_config
        )
        ingestor = ParallelIngestor(workers=2)
        ods, index = ingestor.build(
            corpus, dataset.mapping, dataset.real_world_type, signature_config
        )
        assert ingestor.last_report.backend == "parallel"
        assert index.strategy == "signature"
        assert serial_index.strategy == "qgram"
        for threshold in (0.15, 0.5):
            assert index.statistics() == serial_index.statistics()

    def test_corpus_index_rejects_mismatched_partial(self):
        ods = _dblp_ods()
        index = CorpusIndex(
            ods, TypeMapping(), theta_tuple=0.25, strategy="signature"
        )
        index.thaw()
        delta = IndexPartial(strategy="qgram")
        with pytest.raises(ValueError, match="qgram.*signature"):
            index.merge_partial(delta)

    def test_env_override_sets_the_config_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMILARITY_STRATEGY", "signature")
        assert DogmatixConfig().similarity_strategy == "signature"
        monkeypatch.setenv("REPRO_SIMILARITY_STRATEGY", "qgram")
        assert DogmatixConfig().similarity_strategy == "qgram"
        monkeypatch.setenv("REPRO_SIMILARITY_STRATEGY", "bk-tree")
        with pytest.raises(ValueError, match="similarity_strategy"):
            DogmatixConfig()


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

    def test_strategy_stays_out_of_the_content_key(self, example_dir):
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        qgram_spec = self._spec(example_dir)
        signature_spec = self._spec(
            example_dir, similarity_strategy="signature"
        )
        assert store.key_for(qgram_spec) == store.key_for(signature_spec)

    def test_warm_load_honors_the_live_strategy(self, example_dir):
        """One snapshot serves both strategies: the index is rebuilt
        from the stored ODs with the *live* spec's strategy, and
        answers stay bit-identical."""
        from repro.ingest import IndexStore

        store = IndexStore(example_dir / "store")
        qgram_spec = self._spec(example_dir)
        cold = qgram_spec.build_session()
        store.save(qgram_spec, cold)
        reference = cold.detect()

        warm = store.load(self._spec(example_dir,
                                     similarity_strategy="signature"))
        assert warm is not None
        assert warm.index.strategy == "signature"
        assert_results_identical(reference, warm.detect())
        for od in cold.ods:
            assert [
                (m.object_id, m.similarity, m.path)
                for m in warm.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in cold.match(od.object_id)
            ]
