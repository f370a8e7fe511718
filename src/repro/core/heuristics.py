"""Description-selection heuristics (Section 4.1 of the paper).

A heuristic maps a schema element ``e0`` (the candidate type) to a
selection σ of XPaths *relative to* ``e0`` (Definition 5).  The paper
proposes three, all based on proximity in the schema tree:

* :class:`RDistantAncestors` (h_ra) — ancestors within radius ``r_a``;
* :class:`RDistantDescendants` (h_rd) — all descendants within radius
  ``r_d``;
* :class:`KClosestDescendants` (h_kd) — the first ``k`` descendants in
  breadth-first order.

Heuristics combine with AND (σ intersection) and OR (σ union)
(Combination 1), and are refined by conditions via
:func:`repro.core.selection.refine` (Combination 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..xmlkit.schema import SchemaElement


class Heuristic(Protocol):
    """Maps a candidate schema element to schema-element selections."""

    def select(self, e0: SchemaElement) -> list[SchemaElement]:
        """Selected schema elements (σ as declarations, not yet paths)."""
        ...  # pragma: no cover - protocol


def relative_xpath(e0: SchemaElement, target: SchemaElement) -> str:
    """XPath of ``target`` relative to ``e0`` within the schema tree.

    Descendants render as ``./a/b``; the i-th ancestor renders as
    ``../..`` chains (the paper's σ contains XPaths relative to s_i).
    """
    # Descendant?
    chain: list[str] = []
    node = target
    while node is not None and node is not e0:
        chain.append(node.name)
        node = node.parent  # type: ignore[assignment]
    if node is e0:
        return "./" + "/".join(reversed(chain)) if chain else "."
    # Ancestor?
    ups = 0
    node = e0
    while node is not None:
        if node is target:
            return "/".join([".."] * ups)
        node = node.parent  # type: ignore[assignment]
        ups += 1
    raise ValueError(
        f"{target.name!r} is neither ancestor nor descendant of {e0.name!r}"
    )


class RDistantAncestors:
    """Heuristic 1 (h_ra): the ``r`` nearest ancestors of e0."""

    def __init__(self, radius: int) -> None:
        if radius < 1:
            raise ValueError(f"ancestor radius must be >= 1, got {radius}")
        self.radius = radius

    def select(self, e0: SchemaElement) -> list[SchemaElement]:
        selected: list[SchemaElement] = []
        for distance, ancestor in enumerate(e0.ancestors(), start=1):
            if distance > self.radius:
                break
            selected.append(ancestor)
        return selected

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RDistantAncestors) and other.radius == self.radius

    def __hash__(self) -> int:
        return hash((RDistantAncestors, self.radius))

    def __repr__(self) -> str:
        return f"h_ra(r={self.radius})"


class RDistantDescendants:
    """Heuristic 2 (h_rd): all descendants within depth radius ``r``."""

    def __init__(self, radius: int) -> None:
        if radius < 1:
            raise ValueError(f"descendant radius must be >= 1, got {radius}")
        self.radius = radius

    def select(self, e0: SchemaElement) -> list[SchemaElement]:
        selected: list[SchemaElement] = []
        for depth in range(1, self.radius + 1):
            selected.extend(e0.descendants_at_depth(depth))
        return selected

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RDistantDescendants) and other.radius == self.radius

    def __hash__(self) -> int:
        return hash((RDistantDescendants, self.radius))

    def __repr__(self) -> str:
        return f"h_rd(r={self.radius})"


class KClosestDescendants:
    """Heuristic 3 (h_kd): first ``k`` descendants in breadth-first order.

    Unlike h_rd the selection size is bounded by ``k`` even when a level
    is wide; unlike h_rd it may prefer one sibling over another purely
    by document order (the xs:any caveat the paper discusses).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def select(self, e0: SchemaElement) -> list[SchemaElement]:
        selected: list[SchemaElement] = []
        for element in e0.breadth_first():
            if len(selected) == self.k:
                break
            selected.append(element)
        return selected

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KClosestDescendants) and other.k == self.k

    def __hash__(self) -> int:
        return hash((KClosestDescendants, self.k))

    def __repr__(self) -> str:
        return f"h_kd(k={self.k})"


class CombinedHeuristic:
    """Combination 1: AND (intersection) / OR (union) of two heuristics.

    Selection order: the left operand's order, extended by new elements
    from the right operand (for OR).
    """

    def __init__(self, left: Heuristic, right: Heuristic, operator: str) -> None:
        if operator not in ("and", "or"):
            raise ValueError(f"operator must be 'and' or 'or', got {operator!r}")
        self.left = left
        self.right = right
        self.operator = operator

    def select(self, e0: SchemaElement) -> list[SchemaElement]:
        left = self.left.select(e0)
        right = self.right.select(e0)
        right_ids = {id(element) for element in right}
        if self.operator == "and":
            return [element for element in left if id(element) in right_ids]
        left_ids = {id(element) for element in left}
        return left + [element for element in right if id(element) not in left_ids]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinedHeuristic)
            and other.operator == self.operator
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash((CombinedHeuristic, self.operator, self.left, self.right))

    def __repr__(self) -> str:
        symbol = "∧h" if self.operator == "and" else "∨h"
        return f"({self.left!r} {symbol} {self.right!r})"


def h_and(left: Heuristic, right: Heuristic) -> CombinedHeuristic:
    """``h1 ∧h h2``: intersection of the selections."""
    return CombinedHeuristic(left, right, "and")


def h_or(left: Heuristic, right: Heuristic) -> CombinedHeuristic:
    """``h1 ∨h h2``: union of the selections."""
    return CombinedHeuristic(left, right, "or")
