"""End-to-end DogmatiX tests on the paper's running example and on
multi-source inputs."""

import pytest

from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.framework import TypeMapping
from repro.xmlkit import parse


@pytest.fixture()
def example_run():
    config = DogmatixConfig(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,   # "Matrix" ~ "The Matrix" (ned 0.4) is similar
        theta_cand=0.55,
        use_object_filter=False,
    )
    session = DetectionSession(
        Source(paper_example_document(), paper_example_schema()),
        paper_example_mapping(),
        "MOVIE",
        config,
    )
    return session, session.detect()


class TestPaperExample:
    def test_three_candidates(self, example_run):
        _, result = example_run
        assert len(result.ods) == 3

    def test_matrix_movies_cluster(self, example_run):
        _, result = example_run
        assert result.duplicate_id_pairs() == {(0, 1)}
        assert result.clusters == [[0, 1]]

    def test_dupcluster_output_matches_fig3(self, example_run):
        _, result = example_run
        document = parse(result.to_xml())
        (cluster,) = document.root.find_all("dupcluster")
        assert [e.text for e in cluster.find_all("duplicate")] == [
            "/moviedoc/movie[1]",
            "/moviedoc/movie[2]",
        ]

    def test_introspection_populated(self, example_run):
        session, _ = example_run
        assert session.index is not None
        assert session.similarity is not None

    def test_inferred_schema_equivalent(self):
        """Without an XSD, schema inference supports the same run."""
        config = DogmatixConfig(
            heuristic=RDistantDescendants(2),
            theta_tuple=0.55,
            theta_cand=0.55,
            use_object_filter=False,
        )
        result = DetectionSession(
            Source(paper_example_document()),  # no schema given
            paper_example_mapping(),
            "MOVIE",
            config,
        ).detect()
        assert result.duplicate_id_pairs() == {(0, 1)}


class TestMultiSource:
    def test_candidates_across_schemas(self):
        imdb = parse(
            "<a><movie><title>Dune</title><year>1984</year></movie>"
            "<movie><title>Alien</title><year>1979</year></movie></a>"
        )
        other = parse(
            "<b><film><name>Dune</name><year>1984</year></film>"
            "<film><name>Heat</name><year>1995</year></film></b>"
        )
        mapping = (
            TypeMapping()
            .add("MOVIE", ["/a/movie", "/b/film"])
            .add("TITLE", ["/a/movie/title", "/b/film/name"])
            .add("YEAR", ["/a/movie/year", "/b/film/year"])
        )
        config = DogmatixConfig(
            heuristic=RDistantDescendants(1),
            theta_cand=0.5,
            use_object_filter=False,
        )
        result = DetectionSession(
            [Source(imdb), Source(other)], mapping, "MOVIE", config
        ).detect()
        assert len(result.ods) == 4
        # the two Dune records (first of each source) pair up
        dune_ids = {
            od.object_id
            for od in result.ods
            if "Dune" in od.values()
        }
        assert result.duplicate_id_pairs() == {tuple(sorted(dune_ids))}

    def test_source_without_candidate_type_skipped(self):
        doc = parse("<a><movie><title>Dune</title></movie></a>")
        unrelated = parse("<c><other/></c>")
        mapping = TypeMapping().add("MOVIE", "/a/movie").add(
            "TITLE", "/a/movie/title"
        )
        config = DogmatixConfig(use_object_filter=False)
        result = DetectionSession(
            [Source(doc), Source(unrelated)], mapping, "MOVIE", config
        ).detect()
        assert len(result.ods) == 1


class TestComparisonReduction:
    def make_doc(self):
        return parse(
            "<db>"
            "<rec><name>alpha one</name><code>11111</code></rec>"
            "<rec><name>alpha one</name><code>11111</code></rec>"
            "<rec><name>beta two</name><code>22222</code></rec>"
            "<rec><name>gamma three</name><code>33333</code></rec>"
            "</db>"
        )

    def mapping(self):
        return (
            TypeMapping()
            .add("REC", "/db/rec")
            .add("NAME", "/db/rec/name")
            .add("CODE", "/db/rec/code")
        )

    def test_blocking_reduces_comparisons(self):
        config = DogmatixConfig(
            heuristic=RDistantDescendants(1),
            use_object_filter=False,
            use_blocking=True,
        )
        result = DetectionSession(
            Source(self.make_doc()), self.mapping(), "REC", config
        ).detect()
        assert result.compared_pairs < 6  # fewer than all pairs

    def test_blocking_preserves_duplicates(self):
        found = {}
        for blocking in (False, True):
            config = DogmatixConfig(
                heuristic=RDistantDescendants(1),
                use_object_filter=False,
                use_blocking=blocking,
            )
            result = DetectionSession(
                Source(self.make_doc()), self.mapping(), "REC", config
            ).detect()
            found[blocking] = result.duplicate_id_pairs()
        assert found[False] == found[True]

    def test_object_filter_records_pruned(self):
        config = DogmatixConfig(
            heuristic=RDistantDescendants(1),
            use_object_filter=True,
            use_blocking=True,
        )
        session = DetectionSession(
            Source(self.make_doc()), self.mapping(), "REC", config
        )
        result = session.detect()
        # records 2 and 3 share nothing similar -> pruned
        assert set(result.pruned_object_ids) == {2, 3}
        # the duplicate pair survives the filter
        assert result.duplicate_id_pairs() == {(0, 1)}


class TestConfig:
    def test_defaults(self):
        config = DogmatixConfig()
        assert config.theta_tuple == 0.15
        assert config.theta_cand == 0.55
        assert isinstance(config.heuristic, KClosestDescendants)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DogmatixConfig(theta_tuple=2.0)
        with pytest.raises(ValueError):
            DogmatixConfig(theta_cand=-0.5)

    def test_selector_combines_heuristic_and_condition(self):
        from repro.core import c_sdt

        config = DogmatixConfig(condition=c_sdt)
        selector = config.selector
        assert selector.condition is c_sdt
        assert selector.heuristic is config.heuristic
