"""Detection results: pairs, clusters, and the dupcluster XML output.

Figure 3 of the paper: for every cluster of duplicate objects a
``<dupcluster>`` element is generated, identified by a unique ``oid``,
whose members are identified by their XPaths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .._lazy import resolve
from ..xmlkit.tree import Document, Element
from .classifier import DUPLICATES, POSSIBLE_DUPLICATES
from .od import ObjectDescription


@dataclass(frozen=True)
class ScoredPair:
    """One compared pair with its similarity and class label."""

    left: int
    right: int
    similarity: float
    label: str


@dataclass
class DetectionResult:
    """Everything a detection run produced.

    ``pairs`` holds only the pairs instantiated for downstream
    processing (duplicates and, if configured, possible duplicates) —
    non-duplicate pairs are not materialized, matching the paper's
    Step 5 note.  ``ods`` is held as a snapshot (a tuple) of the
    candidates the run saw, and member paths are looked up by object id,
    so a result stays right when its producer's candidate list grows or
    its ids are not the positions ``0..n-1``.
    """

    real_world_type: str
    ods: Sequence[ObjectDescription]
    pairs: list[ScoredPair]
    clusters: list[list[int]]
    pruned_object_ids: list[int] = field(default_factory=list)
    compared_pairs: int = 0
    _by_id: dict[int, ObjectDescription] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.ods = tuple(self.ods)
        self._by_id = {od.object_id: od for od in self.ods}

    @property
    def duplicate_pairs(self) -> list[ScoredPair]:
        return [pair for pair in self.pairs if pair.label == DUPLICATES]

    @property
    def possible_pairs(self) -> list[ScoredPair]:
        return [pair for pair in self.pairs if pair.label == POSSIBLE_DUPLICATES]

    def duplicate_id_pairs(self) -> set[tuple[int, int]]:
        """Unordered duplicate pairs as ``(min, max)`` id tuples."""
        return {
            (min(p.left, p.right), max(p.left, p.right))
            for p in self.duplicate_pairs
        }

    def identical_to(self, other: "DetectionResult") -> bool:
        """Bit-identical contents: the execution-backend parity notion.

        The single definition every parity check (engine tests, the
        backend-comparison harness, the benchmarks) must share: same
        ``ScoredPair`` list — order, ids, scores, labels — same
        clusters, same dupcluster XML, same comparison count, same
        pruned ids.  Backends and worker counts may only differ in wall-clock, never in any of these.
        """
        return (
            self.pairs == other.pairs
            and self.clusters == other.clusters
            and self.to_xml() == other.to_xml()
            and self.compared_pairs == other.compared_pairs
            and self.pruned_object_ids == other.pruned_object_ids
        )

    def object_path(self, object_id: int) -> str:
        path = self._by_id[object_id].path
        return f"object:{object_id}" if path is None else path

    def to_xml(self) -> str:
        """Serialize the clusters as the Fig. 3 dupcluster document."""
        root = Element("dupclusters", {"type": self.real_world_type})
        for oid, members in enumerate(self.clusters, start=1):
            cluster = Element("dupcluster", {"oid": str(oid)})
            for object_id in members:
                cluster.append(
                    Element(
                        "duplicate",
                        content=[self.object_path(object_id)],
                    )
                )
            root.append(cluster)
        return resolve("repro.xmlkit.serialize:serialize")(Document(root))

    def cluster_paths(self) -> list[list[str]]:
        """Clusters as lists of member XPaths (the Fig. 3 payload)."""
        return [
            [self.object_path(object_id) for object_id in members]
            for members in self.clusters
        ]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.real_world_type}: {len(self.ods)} candidates, "
            f"{self.compared_pairs} comparisons, "
            f"{len(self.duplicate_pairs)} duplicate pairs, "
            f"{len(self.clusters)} clusters, "
            f"{len(self.pruned_object_ids)} objects pruned"
        )


def clusters_from_xml(text: str) -> tuple[str, list[list[str]]]:
    """Parse a Fig. 3 dupcluster document back into cluster path lists.

    Returns ``(real_world_type, clusters)``; the inverse of
    :meth:`DetectionResult.to_xml` at the path level, for pipelines that
    persist detection output and post-process it later (e.g. fusion).
    """
    from ..xmlkit.parser import parse

    document = parse(text)
    root = document.root
    if root.tag != "dupclusters":
        raise ValueError(f"expected <dupclusters>, got <{root.tag}>")
    clusters: list[list[str]] = []
    for cluster in root.find_all("dupcluster"):
        members = [node.text for node in cluster.find_all("duplicate")]
        if len(members) < 2:
            raise ValueError(
                f"dupcluster oid={cluster.get('oid')!r} has < 2 members"
            )
        clusters.append(members)
    return root.get("type", ""), clusters
