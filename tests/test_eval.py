"""Evaluation harness tests: metrics, gold extraction, experiments,
reporting, and small-scale sweeps."""

import pytest

from repro.core import KClosestDescendants
from repro.eval import (
    EXPERIMENTS,
    EXPERIMENTS_BY_NAME,
    PRResult,
    build_dataset1,
    build_dataset2,
    build_dataset3,
    cluster_pairs,
    filter_metrics,
    format_filter_table,
    format_schema_elements_table,
    format_sweep_table,
    format_threshold_table,
    gold_pairs,
    objects_with_duplicates,
    pair_metrics,
    run_dataset3_threshold_sweep,
    run_experiment,
    run_filter_sweep,
    run_heuristic_sweep,
    run_threshold_sweep,
    session_for,
)
from repro.datagen import DirtyConfig


class TestPRResult:
    def test_perfect(self):
        result = PRResult(10, 0, 0)
        assert result.recall == 1.0 and result.precision == 1.0
        assert result.f1 == 1.0

    def test_partial(self):
        result = PRResult(true_positives=6, false_positives=2, false_negatives=4)
        assert result.recall == 0.6
        assert result.precision == 0.75
        assert result.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_empty_predictions(self):
        result = PRResult(0, 0, 5)
        assert result.precision == 1.0  # nothing reported, nothing wrong
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_empty_gold(self):
        result = PRResult(0, 3, 0)
        assert result.recall == 1.0
        assert result.precision == 0.0


class TestPairMetrics:
    def test_canonicalization(self):
        metrics = pair_metrics([(2, 1), (1, 2)], [(1, 2)])
        assert metrics.true_positives == 1
        assert metrics.false_positives == 0

    def test_self_pairs_ignored(self):
        metrics = pair_metrics([(1, 1)], [(1, 2)])
        assert metrics.true_positives == 0
        assert metrics.false_negatives == 1

    def test_counts(self):
        metrics = pair_metrics([(1, 2), (3, 4)], [(1, 2), (5, 6)])
        assert metrics.true_positives == 1
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1


class TestClusterPairs:
    def test_expansion(self):
        assert cluster_pairs([[1, 2, 3]]) == {(1, 2), (1, 3), (2, 3)}

    def test_multiple_clusters(self):
        assert cluster_pairs([[1, 2], [4, 5]]) == {(1, 2), (4, 5)}

    def test_empty(self):
        assert cluster_pairs([]) == set()


class TestFilterMetrics:
    def test_paper_definitions(self):
        # 10 objects, 4 with duplicates; filter pruned 5, of which 4
        # correctly (non-duplicates) and 1 wrongly.
        metrics = filter_metrics(
            pruned_ids=[0, 1, 2, 3, 9],
            duplicate_ids=[6, 7, 8, 9],
            total=10,
        )
        assert metrics.true_positives == 4
        assert metrics.recall == pytest.approx(4 / 6)
        assert metrics.precision == pytest.approx(4 / 5)

    def test_nothing_pruned(self):
        metrics = filter_metrics([], [1], 5)
        assert metrics.precision == 1.0
        assert metrics.recall == 0.0


class TestGoldExtraction:
    def test_dataset1_gold(self):
        dataset = build_dataset1(base_count=20, seed=1)
        from repro.api import Corpus
        from repro.core import DogmatixConfig

        ods = Corpus(dataset.sources).generate_ods(
            dataset.mapping, "DISC", DogmatixConfig()
        )
        pairs = gold_pairs(ods)
        assert len(pairs) == 20  # 100% duplicates
        assert len(objects_with_duplicates(ods)) == 40

    def test_dataset2_gold(self):
        dataset = build_dataset2(count=10, seed=1)
        from repro.api import Corpus
        from repro.core import DogmatixConfig

        ods = Corpus(dataset.sources).generate_ods(
            dataset.mapping, "MOVIE", DogmatixConfig()
        )
        assert len(ods) == 20
        assert len(gold_pairs(ods)) == 10


class TestExperimentGrid:
    def test_eight_experiments(self):
        assert len(EXPERIMENTS) == 8
        assert [e.name for e in EXPERIMENTS] == [
            f"exp{i}" for i in range(1, 9)
        ]

    def test_exp1_no_condition(self):
        assert EXPERIMENTS_BY_NAME["exp1"].condition is None

    def test_config_construction(self):
        config = EXPERIMENTS_BY_NAME["exp2"].config(KClosestDescendants(3))
        assert config.theta_tuple == 0.15
        assert config.theta_cand == 0.55
        assert not config.use_object_filter

    def test_formulas_match_table4(self):
        assert EXPERIMENTS_BY_NAME["exp8"].formula == "h[c_sdt ∧ c_se ∧ c_me]"


class TestSweeps:
    def test_run_experiment_returns_metrics(self):
        dataset = build_dataset1(base_count=30, seed=2)
        metrics, compared = run_experiment(
            dataset, KClosestDescendants(3), EXPERIMENTS_BY_NAME["exp1"]
        )
        assert 0.0 <= metrics.recall <= 1.0
        assert 0.0 <= metrics.precision <= 1.0
        assert compared > 0

    def test_heuristic_sweep_structure(self):
        dataset = build_dataset1(base_count=25, seed=2)
        sweep = run_heuristic_sweep(
            dataset, KClosestDescendants, [1, 3], "k", EXPERIMENTS[:2]
        )
        assert sweep.positions == [1, 3]
        assert set(sweep.series) == {"exp1", "exp2"}
        assert sweep.recall("exp1", 3) >= 0.0
        assert sweep.precision("exp1", 1) <= 1.0

    def test_recall_improves_with_information(self):
        dataset = build_dataset1(base_count=60, seed=7)
        sweep = run_heuristic_sweep(
            dataset, KClosestDescendants, [1, 5], "k", EXPERIMENTS[:1]
        )
        # At k=5 (did..year) precision must beat the did-only setting.
        assert sweep.precision("exp1", 5) > sweep.precision("exp1", 1)

    def test_threshold_sweep_monotone_and_exact_pairs(self):
        # One sweep covers both claims (it is a single detection run).
        sweep = run_dataset3_threshold_sweep(count=250, seed=3,
                                             thresholds=(0.55, 0.7, 0.85, 0.95))
        assert sweep.pairs_found[0.55] >= sweep.pairs_found[0.7]
        assert sweep.pairs_found[0.7] >= sweep.pairs_found[0.85]
        assert sweep.exact_pairs_found[0.95] >= 1

    def test_filter_sweep_structure(self):
        sweep = run_filter_sweep(base_count=40, percentages=(0, 50))
        assert sweep.percentages == [0, 50]
        assert all(0 <= m.recall <= 1 for m in sweep.metrics.values())
        assert sweep.pruned[0] >= sweep.pruned[50] - 5  # fewer singletons later

    def test_amortized_threshold_sweep_matches_per_point_runs(self):
        """One session across θ_cand points == a fresh run per point."""
        dataset = build_dataset1(base_count=20, seed=7)
        thresholds = (0.55, 0.70)
        sweep = run_threshold_sweep(dataset, thresholds)
        assert list(sweep.series) == ["exp1"]
        for threshold in thresholds:
            metrics, _ = run_experiment(
                dataset, KClosestDescendants(6), EXPERIMENTS[0],
                theta_cand=threshold,
            )
            assert sweep.series["exp1"][threshold] == metrics

    def test_threshold_sweep_with_supplied_session(self):
        dataset = build_dataset1(base_count=15, seed=7)
        session = session_for(dataset, KClosestDescendants(6), EXPERIMENTS[1])
        # Without an experiment the series must not masquerade as exp1.
        sweep = run_threshold_sweep(dataset, (0.55, 0.65), session=session)
        assert list(sweep.series) == ["session"]
        labeled = run_threshold_sweep(
            dataset, (0.55,), experiment=EXPERIMENTS[1], session=session
        )
        assert list(labeled.series) == ["exp2"]


class TestReporting:
    def test_sweep_table_format(self):
        dataset = build_dataset1(base_count=20, seed=2)
        sweep = run_heuristic_sweep(
            dataset, KClosestDescendants, [1], "k", EXPERIMENTS[:1]
        )
        table = format_sweep_table(sweep, "recall", "test title")
        assert "test title" in table
        assert "k=1" in table and "exp1" in table and "%" in table

    def test_sweep_table_bad_metric(self):
        dataset = build_dataset1(base_count=10, seed=2)
        sweep = run_heuristic_sweep(
            dataset, KClosestDescendants, [1], "k", EXPERIMENTS[:1]
        )
        with pytest.raises(ValueError):
            format_sweep_table(sweep, "accuracy", "t")

    def test_threshold_table(self):
        sweep = run_dataset3_threshold_sweep(count=150, seed=3,
                                             thresholds=(0.55, 0.85))
        table = format_threshold_table(sweep)
        assert "0.55" in table and "precision" in table

    def test_filter_table(self):
        sweep = run_filter_sweep(base_count=25, percentages=(0,))
        table = format_filter_table(sweep)
        assert "0%" in table and "recall" in table

    def test_schema_elements_table(self):
        dataset = build_dataset1(base_count=10, seed=2)
        schema = dataset.sources[0].resolved_schema()
        table = format_schema_elements_table(schema, "/freedb/disc")
        assert "disc/did" in table
        assert "(string, ME, SE)" in table
        assert "disc/tracks/title" in table


class TestDatasets:
    def test_dataset1_sizes(self):
        dataset = build_dataset1(base_count=15, seed=1)
        discs = dataset.sources[0].document.root.children
        assert len(discs) == 30

    def test_dataset1_custom_config(self):
        dataset = build_dataset1(
            base_count=16, seed=1,
            config=DirtyConfig(duplicate_fraction=0.5, typo_rate=0,
                               missing_rate=0, synonym_rate=0),
        )
        assert len(dataset.sources[0].document.root.children) == 24

    def test_dataset3_description(self):
        dataset = build_dataset3(count=120, seed=1,
                                 exact_duplicate_pairs=2,
                                 fuzzy_duplicate_pairs=3)
        assert "120" in dataset.description
        assert len(dataset.sources[0].document.root.children) == 120
