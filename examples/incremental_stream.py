#!/usr/bin/env python3
"""Incremental deduplication of a record stream + the relational adapter.

Two scenarios beyond batch XML deduplication:

1. **Relational data** (the paper's Example 1): ``Movie`` and ``Film``
   relations represent the same real-world type; the adapter turns rows
   into object descriptions, so the mapping M and the similarity
   measure apply unchanged.
2. **Streaming**: records arrive one at a time and are clustered
   against *prime representatives* (Monge & Elkan's notion, which the
   paper plans to adopt) — comparisons grow with the number of
   clusters, not the number of past records.

Run:  python examples/incremental_stream.py
"""

from repro.core import CorpusIndex, DogmatixSimilarity
from repro.framework import (
    IncrementalDeduplicator,
    Relation,
    relational_mapping,
    relational_ods,
)


def main() -> None:
    movie = Relation("Movie", ("title", "year", "director"))
    film = Relation("Film", ("titel", "jahr", "regie"))
    for title, year, director in (
        ("The Matrix", "1999", "Wachowski"),
        ("Signs", "2002", "Shyamalan"),
        ("Heat", "1995", "Mann"),
        ("Alien", "1979", "Scott"),
    ):
        movie.insert({"title": title, "year": year, "director": director})
    for titel, jahr, regie in (
        ("Matrix", "1999", "Wachowski"),       # duplicate of The Matrix
        ("Signs", "2002", "M. N. Shyamalan"),  # duplicate of Signs
        ("Der Clou", "1973", "Hill"),          # no counterpart
    ):
        film.insert({"titel": titel, "jahr": jahr, "regie": regie})

    mapping = relational_mapping(
        {
            "TITLE": ["/Movie/title", "/Film/titel"],
            "MYEAR": ["/Movie/year", "/Film/jahr"],
            "DIRECTOR": ["/Movie/director", "/Film/regie"],
        }
    )
    ods = relational_ods([movie, film])
    print(f"candidate set: {len(ods)} rows from Movie + Film")

    index = CorpusIndex(ods, mapping, theta_tuple=0.45)
    similarity = DogmatixSimilarity(index)

    dedup = IncrementalDeduplicator(similarity, threshold=0.55)
    for od in ods:  # the "stream"
        cluster_index = dedup.add(od)
        values = ", ".join(od.values())
        print(f"  + [{values}] -> cluster {cluster_index}")

    print()
    print(f"{dedup.comparisons} representative comparisons "
          f"(naive pairwise: {len(ods) * (len(ods) - 1) // 2})")
    for cluster in dedup.duplicate_clusters():
        members = [", ".join(ods[i].values()) for i in cluster]
        print("duplicate cluster:")
        for member in members:
            print(f"    [{member}]")


if __name__ == "__main__":
    main()
