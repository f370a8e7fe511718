"""Pipeline, result, and query-formulation tests."""

import pytest

from repro.framework import (
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    MatchingTuplesClassifier,
    ThresholdClassifier,
    generate_ods,
)
from repro.xmlkit import parse


@pytest.fixture()
def generic_mapping_doc():
    return parse(
        "<db>"
        "<item><name>alpha</name><code>A1</code></item>"
        "<item><name>alpha</name><code>A1</code></item>"
        "<item><name>beta</name><code>B2</code></item>"
        "</db>"
    )


def tuple_overlap(od_i, od_j):
    values_i = set(od_i.values())
    values_j = set(od_j.values())
    if not values_i or not values_j:
        return 0.0
    return len(values_i & values_j) / max(len(values_i), len(values_j))


class TestDetectionPipeline:
    def make_pipeline(self, threshold=0.5, pair_source=None):
        return DetectionPipeline(
            candidate_definition=CandidateDefinition("ITEM", ("/db/item",)),
            description_definition=DescriptionDefinition(("./name", "./code")),
            classifier=ThresholdClassifier(tuple_overlap, threshold),
            pair_source=pair_source,
        )

    def test_end_to_end(self, generic_mapping_doc):
        result = self.make_pipeline().run(generic_mapping_doc)
        assert len(result.ods) == 3
        assert result.compared_pairs == 3
        assert result.duplicate_id_pairs() == {(0, 1)}
        assert result.clusters == [[0, 1]]

    def test_result_pairs_have_scores(self, generic_mapping_doc):
        result = self.make_pipeline().run(generic_mapping_doc)
        (pair,) = result.duplicate_pairs
        assert pair.similarity == 1.0

    def test_non_threshold_classifier(self, generic_mapping_doc):
        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name", "./code")),
            MatchingTuplesClassifier(0.5),
        )
        result = pipeline.run(generic_mapping_doc)
        # genericized tuples of items 1 and 2 coincide fully
        assert result.duplicate_id_pairs() == {(0, 1)}
        # non-threshold classifiers report a neutral similarity of 1.0
        assert result.duplicate_pairs[0].similarity == 1.0

    def test_detect_on_prebuilt_ods(self, generic_mapping_doc):
        pipeline = self.make_pipeline()
        definition = DescriptionDefinition(("./name", "./code"))
        ods = generate_ods(definition, generic_mapping_doc.root.find_all("item"))
        result = pipeline.detect(ods)
        assert result.duplicate_id_pairs() == {(0, 1)}

    def test_possible_duplicates_materialized(self, generic_mapping_doc):
        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name", "./code")),
            ThresholdClassifier(tuple_overlap, 1.0, possible_threshold=0.5),
        )
        result = pipeline.run(generic_mapping_doc)
        assert result.duplicate_pairs == []
        assert len(result.possible_pairs) == 1

    def test_keep_possible_off(self, generic_mapping_doc):
        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name", "./code")),
            ThresholdClassifier(tuple_overlap, 1.0, possible_threshold=0.5),
            keep_possible=False,
        )
        assert pipeline.run(generic_mapping_doc).pairs == []


class TestDetectionResult:
    def test_to_xml_dupclusters(self, generic_mapping_doc):
        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name", "./code")),
            ThresholdClassifier(tuple_overlap, 0.5),
        )
        result = pipeline.run(generic_mapping_doc)
        xml = result.to_xml()
        reparsed = parse(xml)
        assert reparsed.root.tag == "dupclusters"
        assert reparsed.root.get("type") == "ITEM"
        (cluster,) = reparsed.root.find_all("dupcluster")
        assert cluster.get("oid") == "1"
        members = [e.text for e in cluster.find_all("duplicate")]
        assert members == ["/db/item[1]", "/db/item[2]"]

    def test_summary_mentions_counts(self, generic_mapping_doc):
        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name",)),
            ThresholdClassifier(tuple_overlap, 0.5),
        )
        summary = pipeline.run(generic_mapping_doc).summary()
        assert "3 candidates" in summary
        assert "ITEM" in summary


class TestQueryFormulation:
    """Section 3.3's three queries — candidate, description and OD
    generation — executed natively on a movie document."""

    @pytest.fixture()
    def doc(self):
        return parse(
            "<moviedoc>"
            "<movie><title>The Matrix</title><year>1999</year></movie>"
            "<movie><title>Matrix</title><year>1999</year></movie>"
            "<movie><title>Signs</title><year>2002</year></movie>"
            "</moviedoc>"
        )

    def test_candidate_query(self, doc):
        # mapping files may spell the document as the variable $doc
        for path in ("/moviedoc/movie", "$doc/moviedoc/movie"):
            definition = CandidateDefinition("MOVIE", (path,))
            assert definition.select(doc) == doc.root.find_all("movie")

    def test_description_query(self, doc):
        candidate = CandidateDefinition("MOVIE", ("/moviedoc/movie",))
        description = DescriptionDefinition(("./title", "./year"))
        selected = [
            [(e.tag, e.text) for e in description.select(c)]
            for c in candidate.select(doc)
        ]
        assert selected == [
            [("title", "The Matrix"), ("year", "1999")],
            [("title", "Matrix"), ("year", "1999")],
            [("title", "Signs"), ("year", "2002")],
        ]

    def test_od_generation_query(self, doc):
        candidate = CandidateDefinition("MOVIE", ("/moviedoc/movie",))
        description = DescriptionDefinition(("./title", "./year"))
        ods = generate_ods(description, candidate.select(doc))
        assert [od.object_id for od in ods] == [0, 1, 2]
        assert [(t.name, t.value) for t in ods[1].tuples] == [
            ("/moviedoc/movie[2]/title", "Matrix"),
            ("/moviedoc/movie[2]/year", "1999"),
        ]


class TestClustersRoundTrip:
    def test_to_xml_and_back(self, generic_mapping_doc):
        from repro.framework import clusters_from_xml

        pipeline = DetectionPipeline(
            CandidateDefinition("ITEM", ("/db/item",)),
            DescriptionDefinition(("./name", "./code")),
            ThresholdClassifier(tuple_overlap, 0.5),
        )
        result = pipeline.run(generic_mapping_doc)
        real_world_type, clusters = clusters_from_xml(result.to_xml())
        assert real_world_type == "ITEM"
        assert clusters == result.cluster_paths()

    def test_rejects_wrong_root(self):
        from repro.framework import clusters_from_xml
        import pytest as _pytest

        with _pytest.raises(ValueError, match="dupclusters"):
            clusters_from_xml("<other/>")

    def test_rejects_singleton_cluster(self):
        from repro.framework import clusters_from_xml
        import pytest as _pytest

        bad = (
            '<dupclusters type="T"><dupcluster oid="1">'
            "<duplicate>/a/b[1]</duplicate></dupcluster></dupclusters>"
        )
        with _pytest.raises(ValueError, match="members"):
            clusters_from_xml(bad)
