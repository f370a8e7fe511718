"""Every ``CorpusIndex`` read, computed from the ODs by brute force.

The oracle for the one index the library has: no term state and no
value index — each answer is a scan of the OD list, and a similar-value
group is a comparison of the query against every distinct value of its
kind with the textbook dynamic program
(``tests/reference/dp_levenshtein.py``), kept per query once computed.
``tests/test_index_reads.py`` holds ``CorpusIndex`` to it.

Orders follow the shipped index's contract: a similar-value group lists
values in the order the corpus first holds them (ODs in order, tuples in
order), which is the insertion order of a build over the same ODs and of
one grown by appending them; term order is not part of the contract, so
``block_terms`` is a set here.
"""

from __future__ import annotations

import math

from reference.dp_levenshtein import edit_distance


def ned(a: str, b: str) -> float:
    """Normalized edit distance; two empty strings are at distance 0."""
    longest = max(len(a), len(b))
    return edit_distance(a, b) / longest if longest else 0.0


class NaiveIndex:
    """The reads of a :class:`~repro.core.index.CorpusIndex` over ``ods``."""

    def __init__(self, ods, mapping, theta_tuple: float) -> None:
        self.theta_tuple = theta_tuple
        self.total_objects = len(ods)
        self.key_of = mapping.comparison_key
        #: (key, value, object id) per OD tuple, in corpus order
        self.rows = [
            (self.key_of(odt.name), odt.value, od.object_id)
            for od in ods
            for odt in od.tuples
        ]
        self._groups: dict[tuple[str, str], tuple[str, ...]] = {}

    def occurrences(self, key: str, value: str) -> frozenset[int]:
        return frozenset(o for k, v, o in self.rows if (k, v) == (key, value))

    def objects_with_key(self, key: str) -> frozenset[int]:
        return frozenset(o for k, _, o in self.rows if k == key)

    def key_elsewhere(self, key: str, object_id: int) -> bool:
        return bool(self.objects_with_key(key) - {object_id})

    def pair_idf(self, key_i: str, value_i: str, key_j: str, value_j: str) -> float:
        """Definition 8 with the union materialized: ``log(|Ω| / |O_i ∪
        O_j|)``, an unseen pair counted as one occurrence."""
        union = self.occurrences(key_i, value_i) | self.occurrences(key_j, value_j)
        denominator = max(1, len(union))
        return math.log(max(self.total_objects, denominator) / denominator)

    def values_of(self, key: str) -> list[str]:
        """The distinct values of a kind, in first-held order."""
        return list(dict.fromkeys(v for k, v, _ in self.rows if k == key))

    def similar_values(self, key: str, value: str) -> tuple[str, ...]:
        """The held values of the kind with ``ned < θ_tuple``, and the
        query itself when held (``ned = 0`` even at θ = 0)."""
        group = self._groups.get((key, value))
        if group is None:
            group = self._groups[(key, value)] = tuple(
                held
                for held in self.values_of(key)
                if held == value or ned(value, held) < self.theta_tuple
            )
        return group

    def similar_verdict(self, key: str, a: str, b: str):
        if a == b:
            return self.theta_tuple > 0
        held = self.values_of(key)
        if a in held or b in held:
            return ned(a, b) < self.theta_tuple
        return None

    def objects_with_similar(self, key: str, value: str, exclude=None) -> set[int]:
        found = set()
        for similar in self.similar_values(key, value):
            found |= self.occurrences(key, similar)
        found.discard(exclude)
        return found

    def block_terms(self) -> set[tuple[str, str]]:
        return {(k, v) for k, v, _ in self.rows}

    def block_members(self, term: tuple[str, str]) -> set[int]:
        return self.objects_with_similar(*term)

    def block_keys(self, od) -> set[tuple[str, str]]:
        return {
            (self.key_of(odt.name), similar)
            for odt in od.tuples
            for similar in self.similar_values(self.key_of(odt.name), odt.value)
        }

    def statistics(self) -> dict[str, int]:
        terms = self.block_terms()
        return {
            "objects": self.total_objects,
            "terms": len(terms),
            "kinds": len({k for k, _ in terms}),
            "distinct_values": sum(
                len(self.values_of(key)) for key in {k for k, _ in terms}
            ),
        }
