"""Incremental duplicate detection with prime representatives.

The merge/purge line of work the paper builds on ([12]) processes
records incrementally: each incoming record is compared against the
*prime representatives* of the clusters found so far, not against every
past record.  The paper plans to adopt the notion; this module supplies
it on top of the framework:

* new objects are scored against each cluster's representative;
* on a match the object joins the cluster and the representative
  becomes the fusion of all members' tuples;
* unmatched objects found mutually similar start new clusters via the
  ordinary transitive closure.

This trades a little recall (a representative may not resemble every
member) for comparisons linear in the number of clusters — and, with a
``candidates`` blocking hook, in the number of clusters an object's
values reach, which does not grow with the corpus.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .od import ObjectDescription
from .representatives import merge_cluster_od

SimilarityFunction = Callable[[ObjectDescription, ObjectDescription], float]


class IncrementalDeduplicator:
    """Cluster stream of ODs against evolving prime representatives.

    Parameters
    ----------
    similarity:
        Pair similarity (e.g. a bound :class:`DogmatixSimilarity`).
    threshold:
        Duplicate threshold (Definition 6's θ_cand).
    candidates:
        Optional blocking hook (the stream's counterpart of
        ``pair_source`` on :class:`DetectionPipeline`): the ids of the
        objects a new object can be similar to.  It must return *every*
        added object whose similarity to ``od`` is above 0 — a superset,
        or ids never added, are fine.  Only clusters holding a returned
        id are scored; a representative carries a subset of its
        members' tuples, so no cluster that could score above 0 is
        skipped and the result equals the un-blocked stream's.  Without
        it every representative is compared.
    """

    def __init__(
        self,
        similarity: SimilarityFunction,
        threshold: float,
        candidates: Optional[Callable[[ObjectDescription], Iterable[int]]] = None,
    ) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.similarity = similarity
        self.threshold = threshold
        self.candidates = candidates
        self._clusters: list[list[int]] = []
        self._cluster_of: dict[int, int] = {}
        self._representatives: list[ObjectDescription] = []
        self._members: dict[int, ObjectDescription] = {}
        self.comparisons = 0

    # ------------------------------------------------------------------
    @property
    def clusters(self) -> list[list[int]]:
        """Current clusters (including singletons), insertion-ordered."""
        return [list(cluster) for cluster in self._clusters]

    def duplicate_clusters(self) -> list[list[int]]:
        """Clusters with two or more members."""
        return [list(c) for c in self._clusters if len(c) >= 2]

    def add(self, od: ObjectDescription) -> int:
        """Insert one object; returns the index of its cluster."""
        if od.object_id in self._members:
            raise ValueError(f"object id {od.object_id} already added")
        self._members[od.object_id] = od
        # Ascending cluster order either way, so ties resolve the same.
        reached: Iterable[int] = range(len(self._clusters))
        if self.candidates is not None:
            cluster_of = self._cluster_of
            reached = sorted(
                {cluster_of[i] for i in self.candidates(od) if i in cluster_of}
            )
        best_index: Optional[int] = None
        best_score = self.threshold
        for index in reached:
            self.comparisons += 1
            score = self.similarity(od, self._representatives[index])
            if score > best_score:
                best_score = score
                best_index = index
        if best_index is None:
            best_index = len(self._clusters)
            self._clusters.append([od.object_id])
            self._representatives.append(od)
        else:
            self._clusters[best_index].append(od.object_id)
            self._representatives[best_index] = self._elect(best_index)
        self._cluster_of[od.object_id] = best_index
        return best_index

    def add_all(self, ods: list[ObjectDescription]) -> None:
        for od in ods:
            self.add(od)

    def representative_of(self, cluster_index: int) -> ObjectDescription:
        return self._representatives[cluster_index]

    # ------------------------------------------------------------------
    def _elect(self, cluster_index: int) -> ObjectDescription:
        cluster = self._clusters[cluster_index]
        members = [self._members[object_id] for object_id in cluster]
        return merge_cluster_od(cluster, members, object_id=min(cluster))
