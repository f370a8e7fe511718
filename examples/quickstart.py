#!/usr/bin/env python3
"""Quickstart: the paper's running example on the session API.

Deduplicates the three-movie document of Section 2 (Tables 1-3) —
two representations of "The Matrix" and one "Signs".  The session is
built **once** (schema resolution, object descriptions, the corpus
index, the classifier) and then queried three ways:

* ``detect()``  — the batch run producing the Fig. 3 dupcluster XML;
* ``match(o)``  — duplicate partners of a single object against the
  standing index, without re-running the batch;
* ``extend(s)`` — incremental ingestion of a new source, clustered
  against prime representatives (the merge/purge adaptation).

Run:  python examples/quickstart.py

``detect()`` and ``match()`` run one loop: an object is compared only
with the objects holding a value similar to one of its own, so the
work grows with the duplicates a corpus holds, not with its size
squared.  A whole run also serializes to JSON: ``python -m repro.cli
example --write DIR`` emits a ready ``run.json`` for ``python -m
repro.cli dedup --spec DIR/run.json``.
"""

from repro import DetectionSession, DogmatixConfig, Source
from repro.core import RDistantDescendants
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.xmlkit import parse


def main() -> None:
    document = paper_example_document()
    schema = paper_example_schema()      # Fig. 2 as XSD
    mapping = paper_example_mapping()    # Table 3

    # The running example matches "Matrix" with "The Matrix"
    # (ned = 0.4), so θ_tuple is looser than the evaluation default.
    config = DogmatixConfig(
        heuristic=RDistantDescendants(2),   # titles, years, actor names
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )

    # Build once: schemas, descriptions, index, classifier.
    session = DetectionSession(
        Source(document, schema), mapping, "MOVIE", config
    )

    # 1. Batch detection (steps 4-6 against the standing index).
    result = session.detect()
    print(result.summary())
    print()
    print("Fig. 3 output document:")
    print(result.to_xml())

    # 2. Single-object lookup against the standing index.
    print("Partners of each object via match():")
    for od in session.ods:
        partners = session.match(od.object_id)
        names = ", ".join(m.path for m in partners) or "(none)"
        print(f"  {session.object_path(od.object_id)} -> {names}")
    print()

    # 3. Why movies 1 and 2 are duplicates (immutable Explanation).
    explanation = session.explain(0, 1)
    print("Why movies 1 and 2 are duplicates:")
    for line in explanation.lines():
        print(f"  {line}")
    print()

    # 4. Incremental ingestion: a fourth movie arrives later.
    late_arrival = parse(
        "<moviedoc>"
        "<movie><title>Sings</title><year>2002</year>"
        "<set_of_actors><actor><name>M. Night Shyamalan</name></actor>"
        "</set_of_actors></movie>"
        "</moviedoc>"
    )
    update = session.extend(Source(late_arrival, schema))
    print("After extend() with a dirty 'Signs' duplicate:")
    for object_id, cluster in update.assignments:
        print(f"  object {object_id} -> cluster {cluster}")
    for cluster in update.duplicate_clusters:
        print(f"  duplicate cluster: {list(cluster)}")


if __name__ == "__main__":
    main()
