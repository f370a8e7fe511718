"""Prime representatives for duplicate clusters.

Monge & Elkan's domain-independent merge/purge improvement ([12] in the
paper) keeps one *prime representative* per detected cluster, so later
records are compared against a single canonical element instead of the
whole cluster; the paper's related-work section plans to adopt the
notion.  :func:`merge_cluster_od` builds that representative as a
*fused* OD — the union of all members' tuples per kind — the data-fusion
step downstream tools run after object identification (Section 2.3's
closing remark); :mod:`repro.framework.incremental` elects it.
"""

from __future__ import annotations

from typing import Sequence

from ..xmlkit.tree import strip_positions
from .od import ObjectDescription, ODTuple


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
