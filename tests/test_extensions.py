"""Tests for the paper's future-work extensions: automatic candidate
selection and prime representatives."""

import pytest

from repro.core import best_candidate, suggest_candidates
from repro.datagen import paper_example_document, paper_example_schema
from repro.datagen.freedb import cd_schema
from repro.datagen.movies import filmdienst_schema, imdb_schema
from repro.framework import merge_cluster_od, od_from_pairs


class TestAutomaticCandidateSelection:
    def test_movie_schema(self):
        schema = paper_example_schema()
        assert best_candidate(schema) == "/moviedoc/movie"

    def test_movie_schema_with_instances(self):
        schema = paper_example_schema()
        document = paper_example_document()
        assert best_candidate(schema, [document]) == "/moviedoc/movie"

    def test_cd_schema(self):
        assert best_candidate(cd_schema()) == "/freedb/disc"

    def test_imdb_schema(self):
        assert best_candidate(imdb_schema()) == "/imdb/movie"

    def test_filmdienst_schema(self):
        assert best_candidate(filmdienst_schema()) == "/filmdienst/movie"

    def test_suggestions_ranked(self):
        suggestions = suggest_candidates(cd_schema())
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        assert suggestions[0].xpath == "/freedb/disc"

    def test_instance_counts_exclude_unique_elements(self):
        """With instance data, an element occurring once can't be a
        candidate (nothing to compare)."""
        from repro.xmlkit import parse, infer_schema

        doc = parse(
            "<db><header><title>x</title><owner>y</owner></header>"
            "<rec><a>1</a><b>2</b></rec><rec><a>3</a><b>4</b></rec></db>"
        )
        schema = infer_schema(doc)
        assert best_candidate(schema, [doc]) == "/db/rec"

    def test_leaf_only_schema_raises(self):
        from repro.xmlkit import Schema, SchemaElement

        schema = Schema(SchemaElement("only"))
        with pytest.raises(ValueError):
            best_candidate(schema)


class TestPrimeRepresentatives:
    @pytest.fixture()
    def cluster_ods(self):
        return [
            od_from_pairs(0, [("a", "/d/r[1]/x")]),
            od_from_pairs(1, [("a", "/d/r[2]/x"), ("b", "/d/r[2]/y")]),
            od_from_pairs(2, [("a", "/d/r[3]/x"), ("b", "/d/r[3]/y"),
                              ("c", "/d/r[3]/z")]),
            od_from_pairs(3, [("q", "/d/r[4]/x")]),
        ]

    def test_merge_cluster_od(self, cluster_ods):
        merged = merge_cluster_od([0, 1, 2], cluster_ods)
        assert merged.object_id == 0
        assert sorted(merged.values()) == ["a", "b", "c"]
        # names genericized
        assert all("[" not in name for name in merged.names())

    def test_merge_empty_cluster_raises(self, cluster_ods):
        with pytest.raises(ValueError):
            merge_cluster_od([], cluster_ods)
