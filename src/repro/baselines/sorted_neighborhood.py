"""Sorted-neighborhood method (SNM) baseline.

Hernández & Stolfo's merge/purge approach ([7] in the paper) in its
domain-independent variant ([12]): candidates are sorted by a key
derived from their descriptions, a fixed-size window slides over the
sorted list, and only records within a window are compared.  The paper
points out why this is awkward for XML — "even defining the sorting key
by hand is not at all straightforward" — which this implementation
makes concrete: the key builder has to linearize the OD.

Plugs into the framework as a :class:`~repro.framework.pruning.PairSource`,
so any classifier (including DogmatiX's similarity) can run on top.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..framework.od import ObjectDescription
from ..strings.tokenize import normalize


def default_key(od: ObjectDescription) -> str:
    """A generic sorting key: normalized values, shortest name first.

    Sorting the OD tuples by XPath groups the same kind of information
    together across objects; concatenating the first characters of each
    value approximates the domain-specific keys of merge/purge.
    """
    parts = sorted(
        (odt.name, normalize(odt.value)) for odt in od.tuples if odt.value
    )
    return "".join(value[:4] for _, value in parts)


class SortedNeighborhood:
    """Windowed pair generation over a sorted candidate list."""

    def __init__(
        self,
        window: int = 10,
        key: Callable[[ObjectDescription], str] = default_key,
        passes: int = 1,
    ) -> None:
        """``passes > 1`` runs the multi-pass variant: each pass rotates
        the key (dropping the leading component) to vary the sort order,
        a cheap stand-in for merge/purge's independent key choices."""
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.window = window
        self.key = key
        self.passes = passes

    def pairs(self, ods: Sequence[ObjectDescription]) -> Iterator[tuple[int, int]]:
        emitted: set[tuple[int, int]] = set()
        for pass_index in range(self.passes):
            ordered = sorted(
                ods, key=lambda od: self._pass_key(od, pass_index)
            )
            for start in range(len(ordered)):
                for offset in range(1, self.window):
                    other = start + offset
                    if other >= len(ordered):
                        break
                    pair = (
                        min(ordered[start].object_id, ordered[other].object_id),
                        max(ordered[start].object_id, ordered[other].object_id),
                    )
                    if pair not in emitted:
                        emitted.add(pair)
                        yield pair

    def _pass_key(self, od: ObjectDescription, pass_index: int) -> str:
        key = self.key(od)
        # Rotate: later passes sort by a shifted view of the key.
        if pass_index and key:
            shift = (pass_index * 4) % len(key)
            key = key[shift:] + key[:shift]
        return key
