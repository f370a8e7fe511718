"""Tests for the paper's future-work extensions: automatic candidate
selection, threshold calibration, and prime representatives."""

import pytest

from repro.core import (
    CorpusIndex,
    DogmatixSimilarity,
    best_candidate,
    suggest_candidates,
)
from repro.datagen import paper_example_document, paper_example_schema
from repro.datagen.freedb import cd_schema
from repro.datagen.movies import filmdienst_schema, imdb_schema
from repro.eval import (
    build_dataset1,
    calibrate_theta_cand,
    gold_pairs,
    suggest_theta_tuple,
)
from repro.framework import (
    TypeMapping,
    merge_cluster_od,
    od_from_pairs,
    prime_representatives,
)


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


class TestThresholdCalibration:
    @pytest.fixture(scope="class")
    def labeled(self):
        from repro.api import Corpus
        from repro.core import KClosestDescendants
        from repro.eval import EXPERIMENTS

        dataset = build_dataset1(base_count=60, seed=7)
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        ods = Corpus(dataset.sources).generate_ods(dataset.mapping, "DISC", config)
        gold = sorted(gold_pairs(ods))
        positives = gold[:25]
        ids = sorted(od.object_id for od in ods)
        negatives = []
        gold_set = set(gold)
        for a in ids:
            for b in ids:
                if a < b and (a, b) not in gold_set:
                    negatives.append((a, b))
                    if len(negatives) == 60:
                        break
            if len(negatives) == 60:
                break
        return dataset, ods, positives, negatives

    def test_calibrated_threshold_reasonable(self, labeled):
        dataset, ods, positives, negatives = labeled
        result = calibrate_theta_cand(ods, dataset.mapping, positives, negatives)
        assert 0.3 <= result.best_threshold <= 0.9
        assert result.best_f1 > 0.8
        assert result.curve[result.best_threshold].f1 == result.best_f1

    def test_requires_positive_labels(self, labeled):
        dataset, ods, _, negatives = labeled
        with pytest.raises(ValueError, match="at least one"):
            calibrate_theta_cand(ods, dataset.mapping, [], negatives)

    def test_rejects_conflicting_labels(self, labeled):
        dataset, ods, positives, _ = labeled
        with pytest.raises(ValueError, match="both ways"):
            calibrate_theta_cand(ods, dataset.mapping, positives, positives[:1])

    @pytest.mark.parametrize("encoding", ["dict", "compact"])
    def test_suggest_theta_tuple_range(self, labeled, encoding):
        dataset, ods, _, _ = labeled
        index = CorpusIndex(ods, dataset.mapping, 0.15, encoding=encoding)
        theta = suggest_theta_tuple(index)
        assert 0.05 <= theta <= 0.25
        # Typical Dataset 1 values are ~10-20 chars: one-typo tolerance
        # lands near the paper's 0.15.
        assert abs(theta - 0.15) < 0.1
        # A frozen index (compact: flat arrays, no dicts) reads the same.
        index.freeze()
        assert suggest_theta_tuple(index) == theta

    def test_suggest_theta_tuple_empty_index(self):
        index = CorpusIndex([], TypeMapping(), 0.15)
        assert suggest_theta_tuple(index) == 0.15


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

    def test_richest_policy(self, cluster_ods):
        representatives = prime_representatives([[0, 1, 2]], cluster_ods)
        assert representatives == {0: 2}

    def test_central_policy(self, cluster_ods):
        mapping = TypeMapping()
        index = CorpusIndex(cluster_ods, mapping, 0.3)
        similarity = DogmatixSimilarity(index)
        representatives = prime_representatives(
            [[0, 1, 2]], cluster_ods, policy="central", similarity=similarity
        )
        assert set(representatives.values()) <= {0, 1, 2}

    def test_central_requires_similarity(self, cluster_ods):
        with pytest.raises(ValueError, match="similarity"):
            prime_representatives([[0, 1]], cluster_ods, policy="central")

    def test_unknown_policy(self, cluster_ods):
        with pytest.raises(ValueError, match="policy"):
            prime_representatives([[0, 1]], cluster_ods, policy="best")

    def test_multiple_clusters(self, cluster_ods):
        representatives = prime_representatives(
            [[0, 1], [2, 3]], cluster_ods
        )
        assert representatives == {0: 1, 2: 2}

    def test_merge_cluster_od(self, cluster_ods):
        merged = merge_cluster_od([0, 1, 2], cluster_ods)
        assert merged.object_id == 0
        assert sorted(merged.values()) == ["a", "b", "c"]
        # names genericized
        assert all("[" not in name for name in merged.names())

    def test_merge_empty_cluster_raises(self, cluster_ods):
        with pytest.raises(ValueError):
            merge_cluster_od([], cluster_ods)
