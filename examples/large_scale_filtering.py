#!/usr/bin/env python3
"""Large-scale deduplication with comparison reduction (Dataset 3).

Runs DogmatiX over a large FreeDB-style extract and shows what makes it
tractable in pure Python: the shared-tuple blocking (only pairs with at
least one similar comparable value are ever scored — exact w.r.t. the
thresholded classifier) and the object filter f (whole objects pruned
in one step).  Then sweeps θ_cand over the scored pairs, reproducing
the Figure 7 precision curve.

Run:  python examples/large_scale_filtering.py [count]
"""

import sys
import time

from repro.api import DetectionSession
from repro.core import KClosestDescendants
from repro.eval import (
    EXPERIMENTS_BY_NAME,
    build_dataset3,
    format_threshold_table,
    run_dataset3_threshold_sweep,
    gold_pairs,
)
from repro.framework import count_pairs


def main(count: int = 1500) -> None:
    dataset = build_dataset3(count=count, seed=11)
    print(dataset.description)
    print()

    config = EXPERIMENTS_BY_NAME["exp1"].config(
        KClosestDescendants(6), use_object_filter=True
    )
    session = DetectionSession(dataset.sources, dataset.mapping, "DISC", config)
    ods = session.ods

    start = time.perf_counter()
    result = session.detect()
    elapsed = time.perf_counter() - start

    exhaustive = count_pairs(len(ods))
    print(result.summary())
    print(
        f"comparison reduction: {result.compared_pairs} of {exhaustive} "
        f"possible pairs scored ({result.compared_pairs / exhaustive:.2%}) "
        f"in {elapsed:.1f}s"
    )
    print(f"gold: {len(gold_pairs(ods))} planted duplicate pairs")
    print()

    sweep = run_dataset3_threshold_sweep(count=count, seed=11)
    print(format_threshold_table(sweep))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1500)
