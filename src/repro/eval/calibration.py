"""Threshold self-configuration (the paper's Section 3.1 outlook).

"These parameters need to be set manually in the current
implementation, but we will explore how to make them self configuring
in the future."  Two calibrators:

* :func:`calibrate_theta_cand` — supervised: given a (small) labeled
  pair sample, score each pair once and pick the θ_cand maximizing F1.
  One similarity evaluation per pair; the threshold sweep is free
  because the classifier is monotone in θ.
* :func:`suggest_theta_tuple` — unsupervised: θ_tuple should admit a
  character perturbation or two on typical values without merging
  distinct short values.  We pick the smallest threshold giving an edit
  budget of ``typo_budget`` on the median value length, capped so that
  values of minimum observed length keep a zero budget.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.index import CorpusIndex
from ..core.similarity import DogmatixSimilarity
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from .metrics import PRResult, pair_metrics


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a θ_cand calibration."""

    best_threshold: float
    best_f1: float
    curve: dict[float, PRResult]


def calibrate_theta_cand(
    ods: Sequence[ObjectDescription],
    mapping: TypeMapping,
    labeled_duplicates: Iterable[tuple[int, int]],
    labeled_non_duplicates: Iterable[tuple[int, int]],
    theta_tuple: float = 0.15,
    thresholds: Sequence[float] = tuple(round(0.3 + 0.05 * i, 2) for i in range(13)),
) -> CalibrationResult:
    """Pick θ_cand by F1 over a labeled pair sample."""
    positives = {(min(a, b), max(a, b)) for a, b in labeled_duplicates}
    negatives = {(min(a, b), max(a, b)) for a, b in labeled_non_duplicates}
    if not positives:
        raise ValueError("calibration needs at least one labeled duplicate pair")
    overlap = positives & negatives
    if overlap:
        raise ValueError(f"pairs labeled both ways: {sorted(overlap)[:3]}")

    by_id = {od.object_id: od for od in ods}
    index = CorpusIndex(ods, mapping, theta_tuple)
    similarity = DogmatixSimilarity(index)
    scores = {
        pair: similarity(by_id[pair[0]], by_id[pair[1]])
        for pair in positives | negatives
    }

    curve: dict[float, PRResult] = {}
    best_threshold = thresholds[0]
    best_f1 = -1.0
    for threshold in thresholds:
        predicted = {pair for pair, score in scores.items() if score > threshold}
        metrics = pair_metrics(predicted, positives)
        curve[threshold] = metrics
        if metrics.f1 > best_f1:
            best_f1 = metrics.f1
            best_threshold = threshold
    return CalibrationResult(best_threshold, best_f1, curve)


def suggest_theta_tuple(
    index: CorpusIndex, typo_budget: int = 1, maximum: float = 0.25
) -> float:
    """Unsupervised θ_tuple suggestion from the corpus value lengths.

    Returns the smallest threshold θ such that a value of median length
    L tolerates ``typo_budget`` edits (θ · L > typo_budget), capped at
    ``maximum`` so short categorical values do not merge.
    """
    lengths = [len(value) for _, value in index.block_terms()]
    if not lengths:
        return 0.15
    median_length = statistics.median(lengths)
    if median_length <= 0:
        return 0.15
    # Strict inequality in Eq. 4: budget = floor just below theta * L.
    theta = (typo_budget + 0.5) / median_length
    return round(min(max(theta, 0.05), maximum), 3)
