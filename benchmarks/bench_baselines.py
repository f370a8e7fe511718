"""Baseline comparison: DogmatiX vs. related-work measures.

The paper positions its measure against DELPHI's asymmetric containment
[1], vector-space similarity joins [4], tree-edit-distance joins [6],
and the sorted-neighborhood family [7]/[12]; Section 8 reports
"preliminary experiments have shown that our similarity measure
performs better than other approaches for data from heterogeneous data
sources".  This benchmark runs all five on both scenarios:

* Dataset 1 (one source, typos/missing data),
* Dataset 2 (two structurally different sources, synonyms),

with each comparator embedded in the same pipeline (same candidates,
same ODs, same clustering) so only the measure/blocking differs.
"""

from __future__ import annotations

import time

from conftest import scale

from repro.baselines import (
    ContainmentSimilarity,
    SortedNeighborhood,
    TreeEditClassifier,
    VectorSpaceSimilarity,
)
from repro.api import Corpus, DetectionSession
from repro.core import CorpusIndex, KClosestDescendants, RDistantDescendants
from repro.eval import EXPERIMENTS, build_dataset1, build_dataset2, gold_pairs, pair_metrics
from repro.framework import (
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    ThresholdClassifier,
)


def evaluate(dataset, heuristic, real_world_type):
    config = EXPERIMENTS[0].config(heuristic)
    ods = Corpus(dataset.sources).generate_ods(
        dataset.mapping, real_world_type, config
    )
    gold = gold_pairs(ods)
    candidate_definition = CandidateDefinition(
        real_world_type, tuple(sorted(dataset.mapping.xpaths_of(real_world_type)))
    )
    description = DescriptionDefinition((".",))
    rows = []

    def run(label, detector):
        start = time.perf_counter()
        if isinstance(detector, DetectionSession):
            result = detector.detect()
        else:
            result = detector.detect(ods)
        elapsed = time.perf_counter() - start
        metrics = pair_metrics(result.duplicate_id_pairs(), gold)
        rows.append((label, metrics.recall, metrics.precision, metrics.f1, elapsed))
        return metrics

    # Like every baseline below, the index is built ahead of the timing.
    run(
        "DogmatiX",
        DetectionSession.from_ods(ods, dataset.mapping, real_world_type, config),
    )

    index = CorpusIndex(ods, dataset.mapping, config.theta_tuple)
    containment = ContainmentSimilarity(index)
    run(
        "DELPHI containment",
        DetectionPipeline(
            candidate_definition, description,
            ThresholdClassifier(containment.similarity, 0.8),
        ),
    )

    # The faithful [4]-style baseline: token vectors without any notion
    # of the cross-schema mapping M.
    vsm_flat = VectorSpaceSimilarity(ods)
    run(
        "vector space (flat)",
        DetectionPipeline(
            candidate_definition, description, ThresholdClassifier(vsm_flat, 0.55)
        ),
    )
    # An upgraded variant that we *hand* DogmatiX's mapping M — included
    # to show how much of the win comes from M itself.
    vsm_aware = VectorSpaceSimilarity(ods, dataset.mapping, field_aware=True)
    run(
        "vector space (+M)",
        DetectionPipeline(
            candidate_definition, description, ThresholdClassifier(vsm_aware, 0.55)
        ),
    )

    run(
        "tree edit distance",
        DetectionPipeline(
            candidate_definition, description, TreeEditClassifier(0.8)
        ),
    )

    snm_config = EXPERIMENTS[0].config(heuristic)
    snm_index = CorpusIndex(ods, dataset.mapping, snm_config.theta_tuple)
    from repro.core import DogmatixSimilarity

    run(
        "SNM (w=20) + sim",
        DetectionPipeline(
            candidate_definition,
            description,
            ThresholdClassifier(DogmatixSimilarity(snm_index), 0.55),
            pair_source=SortedNeighborhood(window=20),
        ),
    )
    return rows


def format_rows(rows):
    header = f"{'method':<24}{'recall':>9}{'prec':>9}{'f1':>9}{'time':>9}"
    lines = [header, "-" * len(header)]
    for label, recall, precision, f1, elapsed in rows:
        lines.append(
            f"{label:<24}{recall:>9.1%}{precision:>9.1%}{f1:>9.1%}{elapsed:>8.2f}s"
        )
    return "\n".join(lines)


def run_baselines():
    d1 = build_dataset1(base_count=min(scale("REPRO_D1_BASE", 250), 120), seed=7)
    rows1 = evaluate(d1, KClosestDescendants(6), "DISC")
    d2 = build_dataset2(count=min(scale("REPRO_D2_COUNT", 250), 120), seed=13)
    rows2 = evaluate(d2, RDistantDescendants(4), "MOVIE")
    return rows1, rows2


def test_baseline_comparison(benchmark, report):
    rows1, rows2 = benchmark.pedantic(run_baselines, rounds=1, iterations=1)
    report("Baselines on Dataset 1 (typos, missing data)", format_rows(rows1))
    report("Baselines on Dataset 2 (heterogeneous sources)", format_rows(rows2))

    f1_of = {label: f1 for label, _, _, f1, _ in rows1}
    f1_of2 = {label: f1 for label, _, _, f1, _ in rows2}
    # DogmatiX is competitive on the homogeneous scenario ...
    assert f1_of["DogmatiX"] >= max(f1_of.values()) - 0.05
    # ... and on the heterogeneous one it beats the structure-aware /
    # windowed baselines by wide margins and stays within a few points
    # of the token-bag VSM.  (The paper's §8 "performs better than other
    # approaches for heterogeneous data" cannot be fully discriminated
    # on the synthetic corpus: cross-source duplicates share literally
    # identical person-name and aka-title *tokens*, which is exactly the
    # regime where a token-bag cosine shines — see EXPERIMENTS.md.)
    assert f1_of2["DogmatiX"] >= 0.9
    for label in ("DELPHI containment", "tree edit distance", "SNM (w=20) + sim"):
        assert f1_of2["DogmatiX"] > f1_of2[label] + 0.3
    assert f1_of2["DogmatiX"] >= f1_of2["vector space (flat)"] - 0.08
