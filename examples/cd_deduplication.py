#!/usr/bin/env python3
"""CD catalog deduplication (the Dataset 1 scenario).

Builds a FreeDB-like CD corpus with dirty duplicates (typos, missing
data, synonyms — the paper's 100/20/10/8 percent settings), runs
DogmatiX with the k-closest heuristic, and scores the result against
the generator's gold standard.  Demonstrates:

* schema-driven description selection (Table 5 inventory),
* the comparison-reduction machinery (blocking + object filter),
* recall/precision evaluation.

Run:  python examples/cd_deduplication.py [base_count]
"""

import sys

from repro.api import Corpus, DetectionSession
from repro.core import KClosestDescendants
from repro.eval import (
    EXPERIMENTS_BY_NAME,
    build_dataset1,
    format_schema_elements_table,
    gold_pairs,
    pair_metrics,
)


def main(base_count: int = 200) -> None:
    dataset = build_dataset1(base_count=base_count, seed=7)
    print(dataset.description)
    print()
    corpus = Corpus(dataset.sources)
    schema = corpus.schema_of(dataset.sources[0])
    print(format_schema_elements_table(schema, "/freedb/disc"))
    print()

    # exp1 with k = 6: did, artist, title, genre, year, cdextra.
    experiment = EXPERIMENTS_BY_NAME["exp1"]
    config = experiment.config(
        KClosestDescendants(6), use_object_filter=True
    )
    session = DetectionSession(corpus, dataset.mapping, "DISC", config)

    result = session.detect()
    print(result.summary())

    metrics = pair_metrics(result.duplicate_id_pairs(), gold_pairs(session.ods))
    print(f"against gold standard: {metrics}")
    print()

    stats = session.index.statistics()
    print(
        f"corpus index: {stats['terms']} terms over {stats['kinds']} kinds, "
        f"{stats['distinct_values']} distinct values"
    )
    print(
        f"object filter pruned {len(result.pruned_object_ids)} of "
        f"{len(result.ods)} candidates before pairing"
    )
    print()
    print("first clusters:")
    for cluster in result.clusters[:5]:
        paths = [result.object_path(object_id) for object_id in cluster]
        print("  " + "  <->  ".join(paths))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
