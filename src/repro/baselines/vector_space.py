"""Vector-space-model baseline (Carvalho & da Silva, [4] in the paper).

Objects are token vectors weighted by tf-idf; pairs are scored with
cosine similarity.  This is the "finding similar identities among
objects from multiple web sources" strategy the paper cites as the only
related XML work reporting recall/precision — the natural comparator
for DogmatiX's similarity measure.

The structural information of the OD is deliberately flattened (that is
the point of the baseline): all values are tokenized into one bag,
optionally prefixed by their comparison key to mimic the paper's
"field-aware" vector variant.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..strings.tokenize import tokens


class VectorSpaceSimilarity:
    """tf-idf cosine over OD token bags.

    With ``field_aware=True`` tokens are tagged with their kind of
    information, so "1999" as a year and "1999" inside a title are
    different dimensions.
    """

    def __init__(
        self,
        ods: Sequence[ObjectDescription],
        mapping: TypeMapping | None = None,
        field_aware: bool = False,
    ) -> None:
        self.field_aware = field_aware
        self.mapping = mapping
        self._document_frequency: Counter[str] = Counter()
        self._vectors: dict[int, dict[str, float]] = {}
        self.total = len(ods)
        bags = {od.object_id: self._bag(od) for od in ods}
        for bag in bags.values():
            self._document_frequency.update(set(bag))
        for object_id, bag in bags.items():
            self._vectors[object_id] = self._weigh(bag)

    def _bag(self, od: ObjectDescription) -> Counter[str]:
        bag: Counter[str] = Counter()
        for odt in od.tuples:
            prefix = ""
            if self.field_aware:
                key = (
                    self.mapping.comparison_key(odt.name)
                    if self.mapping
                    else odt.name
                )
                prefix = f"{key}:"
            for token in tokens(odt.value):
                bag[prefix + token] += 1
        return bag

    def _weigh(self, bag: Counter[str]) -> dict[str, float]:
        vector: dict[str, float] = {}
        for token, term_frequency in bag.items():
            document_frequency = self._document_frequency[token]
            idf = math.log(max(self.total, 1) / document_frequency) if document_frequency else 0.0
            weight = term_frequency * idf
            if weight > 0:
                vector[token] = weight
        norm = math.sqrt(sum(weight * weight for weight in vector.values()))
        if norm > 0:
            for token in vector:
                vector[token] /= norm
        return vector

    def __call__(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        return self.similarity(od_i, od_j)

    def similarity(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        """Cosine of the two objects' tf-idf vectors, in [0, 1]."""
        vector_i = self._vectors.get(od_i.object_id)
        vector_j = self._vectors.get(od_j.object_id)
        if not vector_i or not vector_j:
            return 0.0
        if len(vector_i) > len(vector_j):
            vector_i, vector_j = vector_j, vector_i
        return sum(
            weight * vector_j[token]
            for token, weight in vector_i.items()
            if token in vector_j
        )
