"""eval: metrics, datasets, experiment grid, sweeps, and reporting.

Regenerates the evaluation section of the paper: Figures 5–8 and
Tables 4–6, against the synthetic dataset equivalents.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "Dataset": "datasets",
        "build_dataset1": "datasets",
        "build_dataset2": "datasets",
        "build_dataset3": "datasets",
        "cd_mapping": "datasets",
        "EXPERIMENTS": "experiments",
        "EXPERIMENTS_BY_NAME": "experiments",
        "Experiment": "experiments",
        "gold_pairs": "gold",
        "objects_with_duplicates": "gold",
        "FilterSweepResult": "harness",
        "SweepResult": "harness",
        "ThresholdSweepResult": "harness",
        "run_dataset3_threshold_sweep": "harness",
        "run_experiment": "harness",
        "run_filter_sweep": "harness",
        "run_heuristic_sweep": "harness",
        "run_threshold_sweep": "harness",
        "session_for": "harness",
        "PRResult": "metrics",
        "cluster_pairs": "metrics",
        "filter_metrics": "metrics",
        "pair_metrics": "metrics",
        "format_comparable_elements_table": "reporting",
        "format_filter_table": "reporting",
        "format_schema_elements_table": "reporting",
        "format_sweep_table": "reporting",
        "format_threshold_table": "reporting",
    },
)
