"""Effectiveness metrics.

Pairwise recall/precision for the similarity-measure experiments
(Figs. 5–7) and the paper's filter metrics (Fig. 8):

* filter recall — correctly pruned candidates / candidates without any
  duplicate;
* filter precision — correctly pruned candidates / all pruned
  candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class PRResult:
    """Recall / precision (and derived F1) of one configuration."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def recall(self) -> float:
        found = self.true_positives + self.false_negatives
        return self.true_positives / found if found else 1.0

    @property
    def precision(self) -> float:
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 1.0

    @property
    def f1(self) -> float:
        r, p = self.recall, self.precision
        return 2 * p * r / (p + r) if p + r else 0.0

    def __str__(self) -> str:
        return (
            f"recall={self.recall:6.1%} precision={self.precision:6.1%} "
            f"f1={self.f1:6.1%}"
        )


def _canonical(pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in pairs if a != b}


def pair_metrics(
    predicted: Iterable[tuple[int, int]], gold: Iterable[tuple[int, int]]
) -> PRResult:
    """Pairwise recall/precision of predicted duplicate pairs."""
    predicted_set = _canonical(predicted)
    gold_set = _canonical(gold)
    true_positives = len(predicted_set & gold_set)
    return PRResult(
        true_positives=true_positives,
        false_positives=len(predicted_set) - true_positives,
        false_negatives=len(gold_set) - true_positives,
    )


def cluster_pairs(clusters: Iterable[Iterable[int]]) -> set[tuple[int, int]]:
    """All intra-cluster pairs (the pairwise view of a clustering)."""
    pairs: set[tuple[int, int]] = set()
    for cluster in clusters:
        members = sorted(cluster)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.add((members[a], members[b]))
    return pairs


def filter_metrics(
    pruned_ids: Iterable[int], duplicate_ids: Iterable[int], total: int
) -> PRResult:
    """The paper's Fig. 8 metrics for the object filter.

    ``duplicate_ids`` are the objects that *do* have a duplicate; every
    other object is a non-duplicate candidate the filter should prune.

    Returned as a :class:`PRResult` where positives = "correctly
    pruned": recall = TP / #non-duplicates, precision = TP / #pruned.
    """
    pruned = set(pruned_ids)
    duplicates = set(duplicate_ids)
    non_duplicates = total - len(duplicates)
    correctly_pruned = len(pruned - duplicates)
    return PRResult(
        true_positives=correctly_pruned,
        false_positives=len(pruned) - correctly_pruned,
        false_negatives=non_duplicates - correctly_pruned,
    )
