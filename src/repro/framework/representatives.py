"""Prime representatives for duplicate clusters.

Monge & Elkan's domain-independent merge/purge improvement ([12] in the
paper) keeps one *prime representative* per detected cluster, so later
records are compared against a single canonical element instead of the
whole cluster; the paper's related-work section plans to adopt the
notion.  Two selection policies:

* ``richest`` — the member with the most OD tuples (the union-friendly
  choice: most information available for future comparisons);
* ``central`` — the member maximizing total similarity to its cluster
  mates (the medoid), given a similarity function.

:func:`merge_cluster_od` additionally builds a *fused* OD — the union
of all members' tuples per kind — the data-fusion step downstream tools
run after object identification (Section 2.3's closing remark).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..xmlkit.tree import strip_positions
from .od import ObjectDescription, ODTuple

SimilarityFunction = Callable[[ObjectDescription, ObjectDescription], float]


def prime_representatives(
    clusters: Iterable[Sequence[int]],
    ods: Sequence[ObjectDescription],
    policy: str = "richest",
    similarity: SimilarityFunction | None = None,
) -> dict[int, int]:
    """Representative object id per cluster (keyed by smallest member).

    ``policy`` is "richest" or "central"; the latter requires a
    similarity function.
    """
    if policy not in ("richest", "central"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "central" and similarity is None:
        raise ValueError("the 'central' policy needs a similarity function")
    by_id = {od.object_id: od for od in ods}
    representatives: dict[int, int] = {}
    for cluster in clusters:
        members = sorted(cluster)
        if not members:
            continue
        if policy == "richest":
            chosen = max(members, key=lambda oid: (len(by_id[oid].tuples), -oid))
        else:
            assert similarity is not None
            chosen = max(
                members,
                key=lambda oid: (
                    sum(
                        similarity(by_id[oid], by_id[other])
                        for other in members
                        if other != oid
                    ),
                    -oid,
                ),
            )
        representatives[members[0]] = chosen
    return representatives


def merge_cluster_od(
    cluster: Sequence[int],
    ods: Sequence[ObjectDescription],
    object_id: int | None = None,
) -> ObjectDescription:
    """Fuse a cluster into one OD: union of (generic-name, value) data.

    The fused OD's tuple names are genericized (positions stripped)
    since the merged object no longer corresponds to one document node.
    """
    by_id = {od.object_id: od for od in ods}
    members = sorted(cluster)
    if not members:
        raise ValueError("cannot merge an empty cluster")
    seen: set[tuple[str, str]] = set()
    merged: list[ODTuple] = []
    for member in members:
        for odt in by_id[member].tuples:
            generic = strip_positions(odt.name)
            key = (odt.value, generic)
            if key not in seen:
                seen.add(key)
                merged.append(ODTuple(odt.value, generic))
    return ObjectDescription(
        object_id if object_id is not None else members[0], merged
    )
