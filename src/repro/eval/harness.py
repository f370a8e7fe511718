"""Experiment harness: the parameter sweeps behind Figures 5–8.

Every run executes the full DogmatiX pipeline on an assembled dataset
and scores the detected duplicate pairs against the generator's gold
standard.  The sweep results are plain dataclasses; the
:mod:`repro.eval.reporting` module renders them as the paper's tables
and figure series.

Runs go through :class:`repro.api.DetectionSession`, so everything a
sweep point shares with its neighbours is built once: a threshold
sweep (:func:`run_threshold_sweep`, Figure 7's shape) reuses one
session — and with it one :class:`~repro.core.index.CorpusIndex` —
across all θ_cand positions instead of rebuilding per point.
Heuristic sweeps change the object descriptions per position, so their
index is legitimately per-cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..api.corpus import Corpus
from ..api.session import DetectionSession
from ..core.heuristics import Heuristic, KClosestDescendants
from ..core.object_filter import ObjectFilter
from ..datagen.dirty import DirtyConfig
from ..engine.policy import ExecutionPolicy
from .datasets import Dataset, build_dataset1, build_dataset3
from .experiments import EXPERIMENTS, Experiment
from .gold import gold_pairs, objects_with_duplicates
from .metrics import PRResult, filter_metrics, pair_metrics


@dataclass
class SweepResult:
    """recall/precision per (experiment, sweep position)."""

    parameter_name: str                  # "k" or "r" or "theta"
    positions: list[int | float]
    series: dict[str, dict[int | float, PRResult]] = field(default_factory=dict)
    compared_pairs: dict[str, dict[int | float, int]] = field(default_factory=dict)

    def recall(self, experiment: str, position: int | float) -> float:
        return self.series[experiment][position].recall

    def precision(self, experiment: str, position: int | float) -> float:
        return self.series[experiment][position].precision


def session_for(
    dataset: Dataset,
    heuristic: Heuristic,
    experiment: Experiment,
    theta_tuple: float = 0.15,
    theta_cand: float = 0.55,
    policy: ExecutionPolicy | None = None,
    use_object_filter: bool = False,
) -> DetectionSession:
    """A prepared session for one (dataset, heuristic, experiment) cell.

    ``policy`` replaces the experiment's execution policy; the session
    is built in this process whatever its worker count.
    """
    config = experiment.config(
        heuristic,
        theta_tuple=theta_tuple,
        theta_cand=theta_cand,
        use_object_filter=use_object_filter,
    )
    if policy is not None:
        config.execution = policy
    return DetectionSession(
        Corpus(dataset.sources),
        dataset.mapping,
        dataset.real_world_type,
        config,
    )


def run_experiment(
    dataset: Dataset,
    heuristic: Heuristic,
    experiment: Experiment,
    theta_tuple: float = 0.15,
    theta_cand: float = 0.55,
    policy: ExecutionPolicy | None = None,
) -> tuple[PRResult, int]:
    """One cell of a sweep: run a detection session, score against gold.

    ``policy`` selects the execution backend (serial / process
    workers); results are identical, so benchmarks can sweep worker
    counts without touching effectiveness numbers.
    """
    session = session_for(
        dataset, heuristic, experiment,
        theta_tuple=theta_tuple, theta_cand=theta_cand, policy=policy,
    )
    result = session.detect()
    metrics = pair_metrics(result.duplicate_id_pairs(), gold_pairs(session.ods))
    return metrics, result.compared_pairs


def run_heuristic_sweep(
    dataset: Dataset,
    heuristic_factory: Callable[[int], Heuristic],
    positions: Sequence[int],
    parameter_name: str,
    experiments: Iterable[Experiment] = EXPERIMENTS,
    theta_tuple: float = 0.15,
    theta_cand: float = 0.55,
    policy: ExecutionPolicy | None = None,
) -> SweepResult:
    """Sweep a heuristic parameter across the Table 4 experiments."""
    sweep = SweepResult(parameter_name, list(positions))
    for experiment in experiments:
        sweep.series[experiment.name] = {}
        sweep.compared_pairs[experiment.name] = {}
        for position in positions:
            metrics, compared = run_experiment(
                dataset,
                heuristic_factory(position),
                experiment,
                theta_tuple=theta_tuple,
                theta_cand=theta_cand,
                policy=policy,
            )
            sweep.series[experiment.name][position] = metrics
            sweep.compared_pairs[experiment.name][position] = compared
    return sweep


def run_threshold_sweep(
    dataset: Dataset,
    thresholds: Sequence[float],
    heuristic: Heuristic | None = None,
    experiment: Experiment | None = None,
    theta_tuple: float = 0.15,
    policy: ExecutionPolicy | None = None,
    session: Optional[DetectionSession] = None,
) -> SweepResult:
    """θ_cand sweep over **one** detection session.

    The corpus index and similarity depend on θ_tuple, not θ_cand, so
    every position reuses the session's standing index — per sweep
    point only classification runs.  Pass ``session`` to reuse an
    externally prepared one (its config must match the dataset); the
    series is then labeled ``"session"`` unless ``experiment`` names
    the one the session was built for.
    """
    if session is None:
        experiment = experiment or EXPERIMENTS[0]
        session = session_for(
            dataset,
            heuristic or KClosestDescendants(6),
            experiment,
            theta_tuple=theta_tuple,
            theta_cand=min(thresholds),
            policy=policy,
        )
    gold = gold_pairs(session.ods)
    sweep = SweepResult("theta", list(thresholds))
    name = experiment.name if experiment is not None else "session"
    sweep.series[name] = {}
    sweep.compared_pairs[name] = {}
    for threshold in thresholds:
        result = session.detect(theta_cand=threshold)
        sweep.series[name][threshold] = pair_metrics(
            result.duplicate_id_pairs(), gold
        )
        sweep.compared_pairs[name][threshold] = result.compared_pairs
    return sweep


@dataclass
class ThresholdSweepResult:
    """Figure 7: precision (and pair counts) per θ_cand."""

    thresholds: list[float]
    precision: dict[float, float]
    recall: dict[float, float]
    pairs_found: dict[float, int]
    exact_pairs_found: dict[float, int]


def run_dataset3_threshold_sweep(
    count: int = 10_000,
    seed: int = 11,
    thresholds: Sequence[float] = tuple(
        round(0.55 + step * 0.05, 2) for step in range(10)
    ),
    k: int = 6,
    policy: ExecutionPolicy | None = None,
) -> ThresholdSweepResult:
    """Figure 7: θ_cand sweep on Dataset 3 with exp1, h_kd(k=6).

    The classifier is monotone in θ_cand, so a single detection run at
    the lowest threshold yields every higher threshold by filtering the
    scored pairs.
    """
    dataset = build_dataset3(count, seed)
    lowest = min(thresholds)
    session = session_for(
        dataset, KClosestDescendants(k), EXPERIMENTS[0],  # exp1: no condition
        theta_cand=lowest, policy=policy,
    )
    ods = session.ods
    result = session.detect()
    gold = gold_pairs(ods)

    # An "exact duplicate" pair has identical values per kind of
    # information (XPaths differ by position, so compare (key, value)).
    exact_values: dict[int, tuple] = {}
    for od in ods:
        exact_values[od.object_id] = tuple(
            sorted(
                (dataset.mapping.comparison_key(odt.name), odt.value)
                for odt in od.tuples
            )
        )

    precision: dict[float, float] = {}
    recall: dict[float, float] = {}
    pairs_found: dict[float, int] = {}
    exact_found: dict[float, int] = {}
    for threshold in thresholds:
        predicted = {
            (min(p.left, p.right), max(p.left, p.right))
            for p in result.pairs
            if p.similarity > threshold
        }
        metrics = pair_metrics(predicted, gold)
        precision[threshold] = metrics.precision
        recall[threshold] = metrics.recall
        pairs_found[threshold] = len(predicted)
        exact_found[threshold] = sum(
            1
            for left, right in predicted
            if exact_values[left] == exact_values[right]
        )
    return ThresholdSweepResult(
        thresholds=list(thresholds),
        precision=precision,
        recall=recall,
        pairs_found=pairs_found,
        exact_pairs_found=exact_found,
    )


@dataclass
class FilterSweepResult:
    """Figure 8: filter recall/precision per duplicate percentage."""

    percentages: list[int]
    metrics: dict[int, PRResult]
    pruned: dict[int, int]


def run_filter_sweep(
    base_count: int = 500,
    seed: int = 7,
    percentages: Sequence[int] = tuple(range(0, 100, 10)),
    k: int = 6,
    theta_cand: float = 0.55,
) -> FilterSweepResult:
    """Figure 8: object-filter effectiveness as duplicates grow scarcer.

    At x% duplicates, ``x% * base_count`` CDs get one dirty duplicate
    each; the filter should prune exactly the objects without any
    duplicate (paper metrics, see :func:`filter_metrics`).
    """
    experiment = EXPERIMENTS[0]  # exp1
    results: dict[int, PRResult] = {}
    pruned_counts: dict[int, int] = {}
    for percentage in percentages:
        config = DirtyConfig(
            duplicate_fraction=percentage / 100,
            typo_rate=0.20,
            missing_rate=0.10,
            synonym_rate=0.08,
        )
        dataset = build_dataset1(base_count, seed, config)
        session = session_for(
            dataset, KClosestDescendants(k), experiment, theta_cand=theta_cand
        )
        ods = session.ods
        object_filter = ObjectFilter(session.index, theta_cand)
        pruned = [od.object_id for od in ods if not object_filter.keep(od)]
        results[percentage] = filter_metrics(
            pruned, objects_with_duplicates(ods), len(ods)
        )
        pruned_counts[percentage] = len(pruned)
    return FilterSweepResult(
        percentages=list(percentages), metrics=results, pruned=pruned_counts
    )
