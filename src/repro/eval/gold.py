"""Gold-standard extraction.

Generated objects carry a ``gid`` attribute (never part of any object
description); two candidates are true duplicates iff their gids match.
"""

from __future__ import annotations

from typing import Sequence

from ..datagen.dirty import GOLD_ATTRIBUTE
from ..framework.od import ObjectDescription


def gold_pairs(ods: Sequence[ObjectDescription]) -> set[tuple[int, int]]:
    """True duplicate pairs (by object id) among the candidates."""
    by_gid: dict[str, list[int]] = {}
    for od in ods:
        if od.element is None:
            continue
        gid = od.element.get(GOLD_ATTRIBUTE)
        if gid is not None:
            by_gid.setdefault(gid, []).append(od.object_id)
    pairs: set[tuple[int, int]] = set()
    for members in by_gid.values():
        members.sort()
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.add((members[a], members[b]))
    return pairs


def objects_with_duplicates(ods: Sequence[ObjectDescription]) -> set[int]:
    """Ids of candidates that have at least one true duplicate."""
    with_duplicates: set[int] = set()
    for left, right in gold_pairs(ods):
        with_duplicates.add(left)
        with_duplicates.add(right)
    return with_duplicates
