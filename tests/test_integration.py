"""Integration tests: end-to-end scenarios across packages.

These pin the qualitative results of the paper's evaluation at reduced
scale, so the full benchmark harness regressions are caught by the
ordinary test run.
"""

import pytest

from repro.baselines import SortedNeighborhood, VectorSpaceSimilarity
from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
)
from repro.eval import (
    EXPERIMENTS,
    EXPERIMENTS_BY_NAME,
    build_dataset1,
    build_dataset2,
    build_dataset3,
    gold_pairs,
    pair_metrics,
    run_dataset3_threshold_sweep,
    run_filter_sweep,
    run_heuristic_sweep,
)
from repro.framework import ThresholdClassifier, DetectionPipeline, CandidateDefinition, DescriptionDefinition
from repro.xmlkit import parse


@pytest.mark.slow
class TestFig5Shape:
    """Qualitative claims of Fig. 5 at n=200."""

    @pytest.fixture(scope="class")
    def sweep(self):
        dataset = build_dataset1(base_count=100, seed=7)
        return run_heuristic_sweep(
            dataset,
            KClosestDescendants,
            [1, 3, 6, 8],
            "k",
            [EXPERIMENTS_BY_NAME["exp1"], EXPERIMENTS_BY_NAME["exp8"]],
        )

    def test_precision_low_at_k1(self, sweep):
        """Auto-generated disc ids are falsely similar (the did story)."""
        assert sweep.precision("exp1", 1) < 0.5

    def test_precision_peaks_mid_range(self, sweep):
        assert sweep.precision("exp1", 6) > sweep.precision("exp1", 1)
        assert sweep.precision("exp1", 6) > 0.6

    def test_precision_collapses_at_k8(self, sweep):
        """Dummy track titles make non-duplicates similar."""
        assert sweep.precision("exp1", 8) < sweep.precision("exp1", 6) / 2

    def test_recall_complete_at_k8(self, sweep):
        """Track titles carry so much information that all duplicates
        are found."""
        assert sweep.recall("exp1", 8) == 1.0

    def test_exp8_constant_over_k(self, sweep):
        """exp8 keeps only the did for any k: flat curves."""
        values = [
            (sweep.recall("exp8", k), sweep.precision("exp8", k))
            for k in (1, 3, 6, 8)
        ]
        assert len(set(values)) == 1

    def test_recall_high_throughout(self, sweep):
        for k in (1, 3, 6, 8):
            assert sweep.recall("exp1", k) > 0.8


@pytest.mark.slow
class TestFig6Shape:
    """Qualitative claims of Fig. 6 (two structurally different sources)."""

    @pytest.fixture(scope="class")
    def sweep(self):
        dataset = build_dataset2(count=100, seed=13)
        return run_heuristic_sweep(
            dataset,
            RDistantDescendants,
            [1, 2, 4],
            "r",
            [EXPERIMENTS_BY_NAME["exp1"], EXPERIMENTS_BY_NAME["exp2"]],
        )

    def test_year_only_low_precision(self, sweep):
        """r=1 compares only years: many false pairs."""
        assert sweep.precision("exp1", 1) < 0.6
        assert sweep.recall("exp1", 1) > 0.9

    def test_people_names_resolve_duplicates(self, sweep):
        """r=4 adds person names: the strongest cross-source evidence."""
        assert sweep.recall("exp1", 4) > 0.7
        assert sweep.precision("exp1", 4) > 0.9

    def test_string_condition_drops_year(self, sweep):
        """exp2 = h[c_sdt]: year (date) excluded, recall 0 at r=1."""
        assert sweep.recall("exp2", 1) == 0.0

    def test_harder_than_dataset1(self, sweep):
        """The paper's expectation: scenario 2 yields poorer results at
        mid-range radii (synonyms count as contradictions)."""
        assert sweep.recall("exp1", 2) < 0.8


@pytest.mark.slow
class TestFig7Shape:
    @pytest.fixture(scope="class")
    def sweep(self):
        # One run serves every threshold (the sweep filters scored pairs).
        return run_dataset3_threshold_sweep(
            count=400, seed=11, thresholds=(0.55, 0.65, 0.75, 0.85, 0.95)
        )

    def test_precision_monotone_and_saturating(self, sweep):
        precisions = [sweep.precision[t] for t in sweep.thresholds]
        # generally increasing (allow small dips from discrete counts)
        assert precisions[-1] >= precisions[0]
        assert precisions[-1] == 1.0
        # pairs found shrink as the threshold rises
        found = [sweep.pairs_found[t] for t in sweep.thresholds]
        assert sorted(found, reverse=True) == found

    def test_exact_duplicates_survive_all_thresholds(self, sweep):
        assert sweep.exact_pairs_found[0.95] >= 10


class TestFig8Shape:
    def test_filter_effective_across_percentages(self):
        sweep = run_filter_sweep(base_count=150, percentages=(0, 30, 60))
        for percentage in (0, 30, 60):
            metrics = sweep.metrics[percentage]
            assert metrics.recall > 0.5
            assert metrics.precision > 0.7


class TestDogmatixVsBaselines:
    """DogmatiX's measure beats structure-blind baselines on Dataset 1."""

    @pytest.fixture(scope="class")
    def ods_and_gold(self):
        dataset = build_dataset1(base_count=60, seed=7)
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        session = DetectionSession(dataset.sources, dataset.mapping, "DISC", config)
        return dataset, session, session.ods, gold_pairs(session.ods)

    def test_dogmatix_f1(self, ods_and_gold):
        dataset, session, ods, gold = ods_and_gold
        result = session.detect()
        metrics = pair_metrics(result.duplicate_id_pairs(), gold)
        assert metrics.f1 > 0.75

    def test_beats_vector_space(self, ods_and_gold):
        dataset, session, ods, gold = ods_and_gold
        vsm = VectorSpaceSimilarity(ods, dataset.mapping, field_aware=True)
        classifier = ThresholdClassifier(vsm, 0.55)
        pipeline = DetectionPipeline(
            CandidateDefinition("DISC", ("/freedb/disc",)),
            DescriptionDefinition((".",)),
            classifier,
        )
        vsm_result = pipeline.detect(ods)
        vsm_metrics = pair_metrics(vsm_result.duplicate_id_pairs(), gold)
        dog_result = session.detect()
        dog_metrics = pair_metrics(dog_result.duplicate_id_pairs(), gold)
        assert dog_metrics.f1 >= vsm_metrics.f1

    @pytest.mark.slow
    def test_snm_window_misses_pairs(self, ods_and_gold):
        """The sorting-key problem: a small window misses duplicates
        that exhaustive comparison finds."""
        dataset, _, ods, gold = ods_and_gold
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        config.use_blocking = False
        config.use_object_filter = False
        index_pairs = DetectionSession.from_ods(
            ods, dataset.mapping, "DISC", config
        ).detect()
        full_found = index_pairs.duplicate_id_pairs()

        snm = SortedNeighborhood(window=3)
        allowed = set(snm.pairs(ods))
        assert len(full_found & allowed) < len(full_found)


class TestDirtyXMLRobustness:
    """DogmatiX finds duplicates despite each single error type."""

    @pytest.mark.parametrize(
        "typo,missing,synonym",
        [(0.4, 0.0, 0.0), (0.0, 0.3, 0.0), (0.0, 0.0, 0.3)],
    )
    def test_single_error_type(self, typo, missing, synonym):
        from repro.datagen import DirtyConfig

        dataset = build_dataset1(
            base_count=50,
            seed=3,
            config=DirtyConfig(1.0, typo, missing, synonym),
        )
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        session = DetectionSession(dataset.sources, dataset.mapping, "DISC", config)
        result = session.detect()
        metrics = pair_metrics(
            result.duplicate_id_pairs(), gold_pairs(session.ods)
        )
        assert metrics.recall > 0.8


class TestOutputDocument:
    def test_dupcluster_output_parses_and_resolves(self):
        dataset = build_dataset1(base_count=30, seed=7)
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        result = DetectionSession(
            dataset.sources, dataset.mapping, "DISC", config
        ).detect()
        output = parse(result.to_xml())
        assert output.root.tag == "dupclusters"
        # every listed duplicate path resolves in the source document
        source = dataset.sources[0].document
        from repro.xmlkit import select

        for cluster in output.root.find_all("dupcluster"):
            for duplicate in cluster.find_all("duplicate"):
                assert len(select(source, duplicate.text)) == 1
