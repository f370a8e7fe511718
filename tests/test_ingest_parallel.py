"""Parallel corpus construction: serial parity and fallback behavior.

The :class:`~repro.ingest.ParallelIngestor` contract: whatever the
worker count or chunking, the build yields the exact
serial candidate set (ids, OD tuples, parent-owned elements) and an
observably identical index — and therefore bit-identical detection
results.  No session builds through it (a session always builds in the
parent); the benchmark times it, so its parity stays pinned here.
Pool-spawning tests carry the ``slow`` marker to keep the
``-m "not slow"`` dev loop fast.
"""

from __future__ import annotations

import pytest

from repro.api import Corpus, DetectionSession, RunSpec
from repro.core import (
    CorpusIndex,
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    PAPER_EXAMPLE_XML,
    PAPER_EXAMPLE_XSD,
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.engine import ExecutionPolicy
from repro.eval import EXPERIMENTS, build_dataset1, session_for
from repro.ingest import IngestReport, ParallelIngestor


def paper_config() -> DogmatixConfig:
    return DogmatixConfig(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )


def serial_build(corpus, mapping, real_world_type, config):
    """The serial reference: ``generate_ods`` + ``CorpusIndex``."""
    ods = corpus.generate_ods(mapping, real_world_type, config)
    return ods, CorpusIndex(ods, mapping, config.theta_tuple)


def assert_same_build(reference, other):
    """Two ``(ods, index)`` builds are the same build."""
    (reference_ods, reference_index), (ods, index) = reference, other
    assert [od.object_id for od in ods] == [
        od.object_id for od in reference_ods
    ]
    assert [od.tuples for od in ods] == [od.tuples for od in reference_ods]
    assert [
        od.element.absolute_path() if od.element is not None else None
        for od in ods
    ] == [
        od.element.absolute_path() if od.element is not None else None
        for od in reference_ods
    ]
    assert index.statistics() == reference_index.statistics()


class TestSerialPath:
    def test_single_worker_matches_generate_ods(self):
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        config = paper_config()
        mapping = paper_example_mapping()
        reference = corpus.generate_ods(mapping, "MOVIE", config)
        ingestor = ParallelIngestor(1)
        ods, index = ingestor.build(corpus, mapping, "MOVIE", config)
        assert ingestor.last_report == IngestReport(
            backend="serial", workers=1, sources=1, candidates=3
        )
        assert [od.object_id for od in ods] == [od.object_id for od in reference]
        assert [od.tuples for od in ods] == [od.tuples for od in reference]
        # The serial path generates through the corpus, so elements are
        # identical objects, not just equal paths.
        assert all(
            mine.element is theirs.element for mine, theirs in zip(ods, reference)
        )
        assert index.statistics()["objects"] == len(ods)

    def test_unpicklable_payload_falls_back(self):
        config = paper_config()
        config.condition = lambda e0, element: True  # closure: unpicklable
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        ingestor = ParallelIngestor(2)
        ods, _ = ingestor.build(corpus, paper_example_mapping(), "MOVIE", config)
        assert ingestor.last_report.backend == "serial"
        assert ingestor.last_report.reason == "unpicklable ingest payload"
        assert len(ods) == 3

    def test_empty_candidate_set_skips_the_pool(self):
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        mapping = paper_example_mapping()
        ingestor = ParallelIngestor(2)
        ods, index = ingestor.build(
            corpus, mapping.add("NOPE", "/moviedoc/nothing"), "NOPE",
            paper_config(),
        )
        assert ods == []
        assert index.total_objects == 0
        assert ingestor.last_report.reason == "no candidates"

    def test_pattern_xpath_on_inferred_schema_matches_serial(self):
        """A pattern xpath ('//movie') never matches Schema.get()'s
        exact-path lookup, so the serial path yields zero candidates
        for schema-less sources — the parallel gate must agree instead
        of tasking workers with an undeclared unit."""
        from repro.framework import TypeMapping

        mapping = TypeMapping().add("MOVIE", "//movie")
        corpus = Corpus(Source(paper_example_document()))  # no schema
        config = paper_config()
        reference = corpus.generate_ods(mapping, "MOVIE", config)
        assert reference == []  # the serial rule this pins
        ingestor = ParallelIngestor(2)
        ods, index = ingestor.build(corpus, mapping, "MOVIE", config)
        assert ods == []
        assert index.total_objects == 0
        assert ingestor.last_report.reason == "no candidates"

    def test_report_describes_the_current_build_only(self):
        """A reused ingestor reports its latest build, nothing carried
        over from the one before."""
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        mapping = paper_example_mapping()
        config = paper_config()
        config.condition = lambda e0, element: True  # closure: unpicklable
        ingestor = ParallelIngestor(2)
        ingestor.build(corpus, mapping, "MOVIE", config)
        assert ingestor.last_report == IngestReport(
            "serial", 2, 1, 3, "unpicklable ingest payload"
        )
        ingestor.build(
            corpus, mapping.add("NOPE", "/moviedoc/nothing"), "NOPE",
            paper_config(),
        )
        assert ingestor.last_report == IngestReport(
            "serial", 2, 1, 0, "no candidates"
        )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_validation(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ParallelIngestor(workers)


@pytest.mark.slow
class TestParallelParity:
    def test_paper_example_bit_identical(self):
        config = paper_config()
        mapping = paper_example_mapping()
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        ingestor = ParallelIngestor(2)
        built = ingestor.build(corpus, mapping, "MOVIE", config)
        assert ingestor.last_report.backend == "parallel"
        assert_same_build(serial_build(corpus, mapping, "MOVIE", config), built)
        reference = DetectionSession(
            Source(paper_example_document(), paper_example_schema()),
            mapping, "MOVIE", config,
        )
        session = DetectionSession(corpus, mapping, "MOVIE", config, ods=built[0])
        assert session.detect().identical_to(reference.detect())

    def test_dataset1_parity_and_detection(self):
        """Realistic generator corpus: same build, bit-identical run."""
        dataset = build_dataset1(base_count=20, seed=7)
        heuristic, experiment = KClosestDescendants(6), EXPERIMENTS[0]
        reference = session_for(dataset, heuristic, experiment)
        corpus = Corpus(dataset.sources)
        ingestor = ParallelIngestor(2)
        built = ingestor.build(
            corpus, dataset.mapping, dataset.real_world_type, reference.config
        )
        assert ingestor.last_report.backend == "parallel"
        assert_same_build((reference.ods, reference.index), built)
        session = DetectionSession(
            corpus, dataset.mapping, dataset.real_world_type, reference.config,
            ods=built[0],
        )
        assert session.detect().identical_to(reference.detect())

    def test_merged_worker_partials_search_like_the_serial_index(self):
        """The value indexes the workers build fold into the parent's
        index without re-counting grams: every similar-value group is
        the serial build's."""
        dataset = build_dataset1(base_count=12, seed=7)
        corpus = Corpus(dataset.sources)
        config = DogmatixConfig()
        _, serial = ParallelIngestor(1).build(
            corpus, dataset.mapping, dataset.real_world_type, config
        )
        ingestor = ParallelIngestor(2)
        _, merged = ingestor.build(
            corpus, dataset.mapping, dataset.real_world_type, config
        )
        assert ingestor.last_report.backend == "parallel"
        assert merged.statistics() == serial.statistics()
        assert sorted(merged.block_terms()) == sorted(serial.block_terms())
        for term in serial.block_terms():
            assert sorted(merged.similar_values(*term)) == sorted(
                serial.similar_values(*term)
            ), term

    def test_chunking_is_invariant(self, monkeypatch):
        """CHUNK_FACTOR only schedules: 1 vs 7 chunks per worker produce
        the same ODs and index."""
        from repro.ingest import builder

        dataset = build_dataset1(base_count=10, seed=11)
        corpus = Corpus(dataset.sources)
        config = DogmatixConfig(use_object_filter=False)
        builds = []
        for chunk_factor in (1, 7):
            monkeypatch.setattr(builder, "CHUNK_FACTOR", chunk_factor)
            ingestor = ParallelIngestor(2)
            builds.append(
                ingestor.build(
                    corpus, dataset.mapping, dataset.real_world_type, config
                )
            )
        (ods_a, index_a), (ods_b, index_b) = builds
        assert [od.object_id for od in ods_a] == [od.object_id for od in ods_b]
        assert [od.tuples for od in ods_a] == [od.tuples for od in ods_b]
        assert index_a.statistics() == index_b.statistics()


class TestSessionsBuildInTheParent:
    """A session generates its ODs and builds its index in the parent:
    no spec or policy reaches the parallel builder."""

    @pytest.fixture()
    def no_parallel_build(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a session called ParallelIngestor.build")

        monkeypatch.setattr(ParallelIngestor, "build", refused)

    def test_parent_spec_with_ingest_workers_builds_in_the_parent(
        self, tmp_path, no_parallel_build
    ):
        """A spec written while ``ingest_workers`` was a field loads
        without it and builds the serial session."""
        (tmp_path / "movies.xml").write_text(PAPER_EXAMPLE_XML, encoding="utf-8")
        (tmp_path / "movies.xsd").write_text(PAPER_EXAMPLE_XSD, encoding="utf-8")
        (tmp_path / "mapping.xml").write_text(
            paper_example_mapping().to_xml(), encoding="utf-8"
        )
        fields = dict(
            documents=[str(tmp_path / "movies.xml")],
            mapping=str(tmp_path / "mapping.xml"),
            real_world_type="MOVIE",
            schemas=[str(tmp_path / "movies.xsd")],
            heuristic="rdistant:2",
            theta_tuple=0.55,
            use_object_filter=False,
        )
        reference = RunSpec(**fields).build_session()
        session = RunSpec.from_dict(
            {**RunSpec(**fields).to_dict(), "ingest_workers": 2,
             "batch_size": 512}
        ).build_session()
        assert_same_build(
            (reference.ods, reference.index), (session.ods, session.index)
        )
        assert session.detect().to_xml() == reference.detect().to_xml()

    @pytest.mark.slow
    def test_session_builds_in_the_parent_at_any_worker_count(
        self, no_parallel_build
    ):
        dataset = build_dataset1(base_count=10, seed=3)
        reference = DetectionSession(
            Corpus(dataset.sources), dataset.mapping,
            dataset.real_world_type, DogmatixConfig(use_object_filter=False),
        )
        session = DetectionSession(
            Corpus(dataset.sources), dataset.mapping, dataset.real_world_type,
            DogmatixConfig(
                use_object_filter=False, execution=ExecutionPolicy(workers=2)
            ),
        )
        assert_same_build(
            (reference.ods, reference.index), (session.ods, session.index)
        )
        assert session.detect().identical_to(reference.detect())
