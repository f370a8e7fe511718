"""Ablation: comparison reduction (Step 4 of the pipeline).

Runs the same Dataset 1 detection three ways —

1. exhaustive (all candidate pairs),
2. shared-tuple blocking,
3. blocking + the f(OD_i) object filter —

and reports comparisons performed, wall time, and effectiveness.
Blocking is lossless for the thresholded classifier (sim > θ_cand > 0
needs one similar pair), so configurations 1 and 2 must find identical
duplicate sets; the filter may trade a little recall for pruning whole
objects, the exact trade-off Fig. 8 studies.
"""

from __future__ import annotations

import time

from conftest import scale

from repro.api import Corpus, DetectionSession
from repro.core import KClosestDescendants
from repro.eval import EXPERIMENTS, build_dataset1, gold_pairs, pair_metrics


def run_reduction_ablation():
    base = min(scale("REPRO_D1_BASE", 250), 150)  # exhaustive is quadratic
    dataset = build_dataset1(base_count=base, seed=7)
    rows = []
    found = {}
    for label, blocking, object_filter in (
        ("exhaustive", False, False),
        ("blocking", True, False),
        ("blocking+filter", True, True),
    ):
        config = EXPERIMENTS[0].config(KClosestDescendants(6))
        config.use_blocking = blocking
        config.use_object_filter = object_filter
        ods = Corpus(dataset.sources).generate_ods(dataset.mapping, "DISC", config)
        start = time.perf_counter()
        result = DetectionSession.from_ods(
            ods, dataset.mapping, "DISC", config
        ).detect()
        elapsed = time.perf_counter() - start
        metrics = pair_metrics(result.duplicate_id_pairs(), gold_pairs(ods))
        rows.append(
            (label, result.compared_pairs, elapsed, metrics.recall,
             metrics.precision, len(result.pruned_object_ids))
        )
        found[label] = result.duplicate_id_pairs()
    return rows, found


def test_ablation_comparison_reduction(benchmark, report):
    rows, found = benchmark.pedantic(
        run_reduction_ablation, rounds=1, iterations=1
    )
    header = f"{'configuration':<17}{'pairs':>9}{'time':>9}{'recall':>9}{'prec':>9}{'pruned':>8}"
    lines = [header, "-" * len(header)]
    for label, pairs, elapsed, recall, precision, pruned in rows:
        lines.append(
            f"{label:<17}{pairs:>9}{elapsed:>8.2f}s{recall:>9.1%}"
            f"{precision:>9.1%}{pruned:>8}"
        )
    report("Ablation: comparison reduction", "\n".join(lines))

    by_label = {row[0]: row for row in rows}
    # Blocking is lossless and strictly cheaper.
    assert found["exhaustive"] == found["blocking"]
    assert by_label["blocking"][1] < by_label["exhaustive"][1]
    # The filter prunes objects and cannot add false pairs.
    assert found["blocking+filter"] <= found["blocking"]
    assert by_label["blocking+filter"][5] > 0
