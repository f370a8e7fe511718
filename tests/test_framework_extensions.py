"""Tests for incremental deduplication, the relational adapter and a
pipeline classifier that reads XML elements."""

import pytest

from repro.baselines import TreeEditClassifier
from repro.core import CorpusIndex, DogmatixSimilarity
from repro.eval import build_dataset1
from repro.framework import (
    DUPLICATES,
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    IncrementalDeduplicator,
    Relation,
    TypeMapping,
    example1_relations,
    od_from_pairs,
    relational_mapping,
    relational_ods,
)


def make_similarity(ods, theta_tuple=0.3, mapping=None):
    index = CorpusIndex(ods, mapping or TypeMapping(), theta_tuple)
    return DogmatixSimilarity(index)


@pytest.fixture()
def stream_ods():
    return [
        od_from_pairs(0, [("alpha record", "/d/r[1]/name"), ("X1", "/d/r[1]/code")]),
        od_from_pairs(1, [("alpha record", "/d/r[2]/name"), ("X1", "/d/r[2]/code")]),
        od_from_pairs(2, [("beta item", "/d/r[3]/name"), ("Z9", "/d/r[3]/code")]),
        od_from_pairs(3, [("alpha record", "/d/r[4]/name")]),
        od_from_pairs(4, [("gamma thing", "/d/r[5]/name"), ("Q5", "/d/r[5]/code")]),
    ]


class TestIncrementalDeduplicator:
    def test_duplicates_join_one_cluster(self, stream_ods):
        dedup = IncrementalDeduplicator(
            make_similarity(stream_ods), threshold=0.55
        )
        dedup.add_all(stream_ods)
        (cluster,) = dedup.duplicate_clusters()
        assert set(cluster) == {0, 1, 3}

    def test_non_duplicates_stay_separate(self, stream_ods):
        dedup = IncrementalDeduplicator(
            make_similarity(stream_ods), threshold=0.55
        )
        dedup.add_all(stream_ods)
        flattened = {oid for cluster in dedup.clusters for oid in cluster}
        assert flattened == {0, 1, 2, 3, 4}
        assert len(dedup.clusters) == 3

    def test_merged_representative_accumulates(self):
        ods = [
            od_from_pairs(0, [("alpha record", "/d/r[1]/name"),
                              ("X1", "/d/r[1]/code")]),
            od_from_pairs(1, [("alpha record", "/d/r[2]/name"),
                              ("extra note", "/d/r[2]/note")]),
            od_from_pairs(2, [("omega", "/d/r[3]/name")]),
        ]
        dedup = IncrementalDeduplicator(make_similarity(ods), threshold=0.55)
        dedup.add_all(ods)
        representative = dedup.representative_of(0)
        # union of both members' information: name + code + note
        assert len(representative.tuples) == 3

    def test_comparisons_linear_in_clusters(self, stream_ods):
        dedup = IncrementalDeduplicator(
            make_similarity(stream_ods), threshold=0.55
        )
        dedup.add_all(stream_ods)
        # each insert compares against at most the current cluster count
        assert dedup.comparisons <= 1 + 2 + 2 + 3 + 3

    def test_duplicate_id_rejected(self, stream_ods):
        dedup = IncrementalDeduplicator(
            make_similarity(stream_ods), threshold=0.55
        )
        dedup.add(stream_ods[0])
        with pytest.raises(ValueError, match="already added"):
            dedup.add(stream_ods[0])

    def test_merged_representative_matches_any_member(self):
        # Object 2 resembles member 1 of {0, 1} only.  The merged
        # representative carries every member's values, so object 2
        # joins the cluster without being scored against its members.
        ods = [
            od_from_pairs(0, [("x", "/d/r[1]/v"), ("q", "/d/r[1]/w")]),
            od_from_pairs(1, [("x", "/d/r[2]/v"), ("y", "/d/r[2]/z")]),
            od_from_pairs(2, [("y", "/d/r[3]/z")]),
        ]
        scored = []

        def overlap_sim(od_a, od_b):
            scored.append((od_a.object_id, od_b.object_id))
            values_a, values_b = set(od_a.values()), set(od_b.values())
            return 1.0 if values_a & values_b else 0.0

        dedup = IncrementalDeduplicator(overlap_sim, 0.5)
        dedup.add_all(ods)
        assert dedup.clusters == [[0, 1, 2]]
        assert len(scored) == dedup.comparisons == 2  # one per arrival

    def test_invalid_parameters(self, stream_ods):
        with pytest.raises(ValueError):
            IncrementalDeduplicator(make_similarity(stream_ods), threshold=1.5)


class TestRelationalAdapter:
    def test_example1_candidates(self):
        movie, film, actor = example1_relations()
        movie.insert({"title": "The Matrix", "year": "1999", "director": "Wachowski"})
        movie.insert({"title": "Signs", "year": "2002", "director": "Shyamalan"})
        film.insert({"titel": "Matrix", "jahr": "1999", "regie": "Wachowski"})
        actor.insert({"name": "Keanu Reeves", "born": "1964"})

        ods = relational_ods([movie, film])
        assert len(ods) == 3  # Ω_motion-pic = Movie rows + Film rows
        mapping = relational_mapping(
            {
                "TITLE": ["/Movie/title", "/Film/titel"],
                "MYEAR": ["/Movie/year", "/Film/jahr"],
                "DIRECTOR": ["/Movie/director", "/Film/regie"],
            }
        )
        similarity = make_similarity(ods, theta_tuple=0.5, mapping=mapping)
        # Movie[1] ("The Matrix") vs Film[1] ("Matrix") are duplicates
        assert similarity(ods[0], ods[2]) > 0.55
        assert similarity(ods[1], ods[2]) < 0.55

    def test_null_values_become_non_specified(self):
        relation = Relation("R", ("a", "b"))
        relation.insert({"a": "x"})          # b is NULL
        relation.insert({"a": "x", "b": ""})  # empty counts as NULL
        ods = relational_ods([relation])
        assert [len(od) for od in ods] == [1, 1]

    def test_positional_tuple_names(self):
        relation = Relation("R", ("a",))
        relation.insert({"a": "v1"})
        relation.insert({"a": "v2"})
        ods = relational_ods([relation])
        assert ods[0].names() == ["/R[1]/a"]
        assert ods[1].names() == ["/R[2]/a"]

    def test_exclude_columns(self):
        relation = Relation("R", ("id", "name"))
        relation.insert({"id": "1", "name": "x"})
        (od,) = relational_ods([relation], exclude_columns=("id",))
        assert od.names() == ["/R[1]/name"]

    def test_start_id(self):
        relation = Relation("R", ("a",))
        relation.insert({"a": "v"})
        (od,) = relational_ods([relation], start_id=10)
        assert od.object_id == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            Relation("", ("a",))
        with pytest.raises(ValueError):
            Relation("R", ())
        with pytest.raises(ValueError):
            Relation("R", ("a",), rows=[("x", "y")])
        relation = Relation("R", ("a",))
        with pytest.raises(ValueError, match="unknown columns"):
            relation.insert({"zzz": "v"})
        with pytest.raises(ValueError):
            relation.column_path("zzz")


class TestPipelineClassifierSeesTheCallersODs:
    def test_tree_edit_pipeline_is_the_brute_force_loop(self):
        """:class:`TreeEditClassifier` scores ``od.element``: the
        pipeline must hand it the ODs it generated, elements attached,
        and keep exactly the pairs a loop over them keeps."""
        dataset = build_dataset1(base_count=10, seed=7)
        classifier = TreeEditClassifier(0.8)
        result = DetectionPipeline(
            CandidateDefinition("DISC", ("/freedb/disc",)),
            DescriptionDefinition(("./artist", "./title", "./year")),
            classifier,
        ).run(dataset.sources[0].document)
        assert all(od.element is not None for od in result.ods)
        brute_force = []
        for i, od_i in enumerate(result.ods):
            for od_j in result.ods[i + 1 :]:
                score, label = classifier.score_and_classify(od_i, od_j)
                if label == DUPLICATES:
                    brute_force.append(
                        (od_i.object_id, od_j.object_id, score.hex(), label)
                    )
        assert brute_force  # the classifier finds duplicates at all
        assert [
            (pair.left, pair.right, pair.similarity.hex(), pair.label)
            for pair in result.pairs
        ] == brute_force
        count = len(result.ods)
        assert result.compared_pairs == count * (count - 1) // 2
