"""The DogmatiX algorithm's worker-side runtime (Section 3).

Inputs: one or more XML documents with their schemas
(:class:`~repro.core.source.Source`), a mapping *M* of element XPaths to
real-world types, and the real-world type to deduplicate.
:class:`repro.api.DetectionSession` then

1. selects the duplicate candidates Ω_T (all instances of the mapped
   schema elements, possibly across differently structured sources),
2. derives each source's description selection σ via the configured
   heuristic/condition (domain-independently, from the schema),
3. generates object descriptions,
4. reduces comparisons with shared-tuple blocking and the object
   filter f,
5. classifies pairs with the thresholded softIDF similarity measure,
6. clusters duplicates transitively,

and returns a :class:`~repro.framework.result.DetectionResult` whose
``to_xml()`` emits the Fig. 3 dupcluster document.  The factory here
rebuilds step 5's classifier inside pool workers; only ``detect()``
loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..framework.classifier import ThresholdClassifier
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from .index import CorpusIndex
from .similarity import DogmatixSimilarity


@dataclass(frozen=True)
class DogmatixClassifierFactory:
    """Rebuilds the DogmatiX classifier inside a worker process.

    The engine's process backend calls this once per worker (via the
    pool initializer) with the full OD instance, so every worker builds
    its own :class:`CorpusIndex` exactly once — the same deterministic
    construction the parent performs, hence bit-identical similarity
    scores (asserted by the serial-equivalence tests).
    """

    mapping: TypeMapping
    theta_tuple: float
    theta_cand: float
    possible_threshold: float | None
    semantics: str

    def __call__(self, ods: Sequence[ObjectDescription]) -> ThresholdClassifier:
        index = CorpusIndex(ods, self.mapping, self.theta_tuple)
        # Worker indexes are complete on construction — pinned like the
        # parent's.
        index.freeze()
        similarity = DogmatixSimilarity(index, semantics=self.semantics)
        return ThresholdClassifier(
            similarity,
            self.theta_cand,
            possible_threshold=self.possible_threshold,
        )
