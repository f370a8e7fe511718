"""Ablation: edit-distance bounds and the q-gram count filter ([18]).

The paper avoids expensive edit-distance computations with "a simple
combination of upper and lower edit distance bounds".  This benchmark
quantifies both tiers on the Dataset 1 value universe:

* BoundedMatcher — fraction of pairwise ned checks decided by the
  length/bag/prefix bounds without running the DP;
* QGramIndex — verifications per probe vs. the brute-force candidate
  count when building per-type similar-value groups.
"""

from __future__ import annotations

import time

from conftest import scale

from repro.api import Corpus
from repro.eval import EXPERIMENTS, build_dataset1
from repro.core.heuristics import KClosestDescendants
from repro.strings import BoundedMatcher, QGramIndex, within_normalized


def collect_values():
    base = scale("REPRO_D1_BASE", 250)
    dataset = build_dataset1(base_count=min(base, 250), seed=7)
    config = EXPERIMENTS[0].config(KClosestDescendants(8))
    ods = Corpus(dataset.sources).generate_ods(dataset.mapping, "DISC", config)
    by_kind: dict[str, list[str]] = {}
    for od in ods:
        for odt in od.tuples:
            kind = dataset.mapping.comparison_key(odt.name)
            by_kind.setdefault(kind, []).append(odt.value)
    return {kind: sorted(set(values)) for kind, values in by_kind.items()}


def run_bounds_ablation():
    by_kind = collect_values()
    theta = 0.15
    results = {}

    # Tier 1: pairwise checks with and without bound short-circuits,
    # on the largest value population (track titles).
    kind, values = max(by_kind.items(), key=lambda item: len(item[1]))
    sample = values[:400]
    start = time.perf_counter()
    matcher = BoundedMatcher(theta)
    bounded_matches = sum(
        matcher.matches(a, b)
        for i, a in enumerate(sample)
        for b in sample[i + 1 :]
    )
    bounded_time = time.perf_counter() - start

    start = time.perf_counter()
    direct_matches = sum(
        within_normalized(a, b, theta)
        for i, a in enumerate(sample)
        for b in sample[i + 1 :]
    )
    direct_time = time.perf_counter() - start
    assert bounded_matches == direct_matches

    results["kind"] = kind
    results["values"] = len(sample)
    results["bound_savings"] = matcher.savings()
    results["bounded_time"] = bounded_time
    results["direct_time"] = direct_time

    # Tier 2: q-gram index probes vs. brute-force candidates.
    index = QGramIndex(q=2)
    for value in sample:
        index.add(value)
    for value in sample:
        index.search(value, theta)
    results["qgram_probes"] = index.probes
    results["qgram_verifications"] = index.verifications
    results["brute_candidates"] = len(sample) * (len(sample) - 1)
    return results


def test_ablation_edit_distance_bounds(benchmark, report):
    results = benchmark.pedantic(run_bounds_ablation, rounds=1, iterations=1)
    table = "\n".join(
        [
            f"value kind:                {results['kind']}",
            f"distinct values:           {results['values']}",
            f"bound short-circuit rate:  {results['bound_savings']:.1%}",
            f"pairwise time (bounded):   {results['bounded_time']:.3f}s",
            f"pairwise time (direct DP): {results['direct_time']:.3f}s",
            f"q-gram verifications:      {results['qgram_verifications']} "
            f"of {results['brute_candidates']} brute-force candidates "
            f"({results['qgram_verifications'] / results['brute_candidates']:.2%})",
        ]
    )
    report("Ablation: edit-distance bounds and q-gram count filter", table)

    # The bounds must decide the overwhelming majority of checks.
    assert results["bound_savings"] > 0.9
    # The q-gram filter must verify a small fraction of all pairs.
    assert results["qgram_verifications"] < 0.1 * results["brute_candidates"]
