"""Ablation: similar-pair semantics (one-to-one matching vs. Eq. 4).

DESIGN.md documents one deviation from the paper's letter: `ODT≈` is a
one-to-one matching by lowest odtDist, whereas Equation 4 literally
admits *every* comparable pair below θ_tuple (so one tuple can be
counted several times).  This ablation runs both semantics on Datasets
1 and 2 and reports the effectiveness difference, justifying the
default: all-pairs inflates the similar mass of repeated low-IDF values
(dummy track titles, genre lists), which costs precision exactly where
Fig. 5's k=8 collapse lives.
"""

from __future__ import annotations

from conftest import scale

from repro.api import DetectionSession
from repro.core import KClosestDescendants, RDistantDescendants
from repro.eval import EXPERIMENTS, build_dataset1, build_dataset2, gold_pairs, pair_metrics


def run_semantics_ablation():
    rows = []
    datasets = [
        ("Dataset 1, k=8", build_dataset1(
            base_count=min(scale("REPRO_D1_BASE", 250), 150), seed=7
        ), KClosestDescendants(8), "DISC"),
        ("Dataset 2, r=2", build_dataset2(
            count=min(scale("REPRO_D2_COUNT", 250), 150), seed=13
        ), RDistantDescendants(2), "MOVIE"),
    ]
    for label, dataset, heuristic, real_world_type in datasets:
        for semantics in ("matching", "all-pairs"):
            config = EXPERIMENTS[0].config(heuristic)
            config.similar_semantics = semantics
            session = DetectionSession(
                dataset.sources, dataset.mapping, real_world_type, config
            )
            result = session.detect()
            metrics = pair_metrics(
                result.duplicate_id_pairs(), gold_pairs(session.ods)
            )
            rows.append((label, semantics, metrics.recall, metrics.precision,
                         metrics.f1))
    return rows


def test_ablation_similar_semantics(benchmark, report):
    rows = benchmark.pedantic(run_semantics_ablation, rounds=1, iterations=1)
    header = f"{'workload':<16}{'semantics':<12}{'recall':>9}{'prec':>9}{'f1':>9}"
    lines = [header, "-" * len(header)]
    for label, semantics, recall, precision, f1 in rows:
        lines.append(
            f"{label:<16}{semantics:<12}{recall:>9.1%}{precision:>9.1%}{f1:>9.1%}"
        )
    report("Ablation: ODT≈ semantics (one-to-one matching vs. literal Eq. 4)",
           "\n".join(lines))

    by_key = {(label, semantics): f1 for label, semantics, _, _, f1 in rows}
    # On the dummy-track workload the literal semantics must not win:
    # repeated similar values only inflate the similar mass.
    assert (
        by_key[("Dataset 1, k=8", "matching")]
        >= by_key[("Dataset 1, k=8", "all-pairs")] - 0.02
    )
