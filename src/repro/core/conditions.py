"""Conditions refining description selections (Section 4.2).

A condition keeps or drops a schema element selected by a heuristic:

* :data:`c_cm`  — content model: only elements that can carry a text
  node (simple or mixed content);
* :data:`c_sdt` — string data type: only string-typed elements (the
  similarity measure is a string measure);
* :data:`c_me`  — mandatory elements: on the descendant axis, elements
  mandatory to e0; on the ancestor axis, ancestors for which e0's
  subtree is mandatory (the "tight relation" reading of the paper);
* :data:`c_se`  — singleton elements: elements in a 1:1 relationship
  with e0 along the connecting path.

Conditions combine with AND/OR (Combination 2).  Cardinality-style
conditions (c_me, c_se) are evaluated over the whole path between e0
and the selected element, so e.g. ``tracks/title`` with unbounded
``title`` is not a singleton of ``disc`` even though ``tracks`` is.
"""

from __future__ import annotations

from typing import Callable

from ..xmlkit.schema import SchemaElement

#: A condition takes (candidate e0, selected element) and keeps or drops.
Condition = Callable[[SchemaElement, SchemaElement], bool]


def _path_between(e0: SchemaElement, element: SchemaElement) -> list[SchemaElement]:
    """Schema elements on the path from e0 (exclusive) to ``element``
    (inclusive), in top-down order.  Works for both axes; raises if the
    nodes are unrelated (heuristics never select unrelated elements).
    """
    # element below e0?
    chain: list[SchemaElement] = []
    node: SchemaElement | None = element
    while node is not None and node is not e0:
        chain.append(node)
        node = node.parent
    if node is e0:
        return list(reversed(chain))
    # element above e0: path is e0's ancestors up to and incl. element.
    chain = []
    node = e0.parent
    while node is not None:
        chain.append(node)
        if node is element:
            return chain
        node = node.parent
    raise ValueError(
        f"{element.name!r} is neither ancestor nor descendant of {e0.name!r}"
    )


def c_cm(e0: SchemaElement, element: SchemaElement) -> bool:
    """Condition 1: only elements with a (possible) non-empty text node."""
    return element.can_have_text


def c_sdt(e0: SchemaElement, element: SchemaElement) -> bool:
    """Condition 2: only elements of string data type."""
    return element.is_string


def c_me(e0: SchemaElement, element: SchemaElement) -> bool:
    """Condition 3: only elements mandatory to e0.

    Descendants: every step from e0 down to the element is mandatory.
    Ancestors: e0's chain up to the ancestor is mandatory (so the
    ancestor cannot exist without an e0 below it in the schema sense).
    """
    if element in _ancestor_set(e0):
        # ancestor axis: e0's chain up to the ancestor must be mandatory
        node: SchemaElement | None = e0
        while node is not None and node is not element:
            if not node.is_mandatory:
                return False
            node = node.parent
        return True
    # descendant axis: all steps below e0 must be mandatory
    return all(step.is_mandatory for step in _path_between(e0, element))


def c_se(e0: SchemaElement, element: SchemaElement) -> bool:
    """Condition 4: only elements in a 1:1 relation with e0.

    Descendants: every step from e0 down to the element is a singleton.
    Ancestors are trivially 1:1 with e0 (an element has one parent).
    """
    if element in _ancestor_set(e0):
        return True
    path = _path_between(e0, element)
    return all(step.is_singleton for step in path)


def _ancestor_set(e0: SchemaElement) -> set[SchemaElement]:
    return set(e0.ancestors())


class CombinedCondition:
    """Combination 2: logical AND / OR of two conditions."""

    def __init__(self, left: Condition, right: Condition, operator: str) -> None:
        if operator not in ("and", "or"):
            raise ValueError(f"operator must be 'and' or 'or', got {operator!r}")
        self.left = left
        self.right = right
        self.operator = operator

    def __call__(self, e0: SchemaElement, element: SchemaElement) -> bool:
        if self.operator == "and":
            return self.left(e0, element) and self.right(e0, element)
        return self.left(e0, element) or self.right(e0, element)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinedCondition)
            and other.operator == self.operator
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash((CombinedCondition, self.operator, self.left, self.right))

    def __repr__(self) -> str:
        symbol = "∧c" if self.operator == "and" else "∨c"
        return f"({_name(self.left)} {symbol} {_name(self.right)})"


def c_and(*conditions: Condition) -> Condition:
    """``c1 ∧c c2 ∧c ...``"""
    if not conditions:
        raise ValueError("c_and needs at least one condition")
    combined = conditions[0]
    for condition in conditions[1:]:
        combined = CombinedCondition(combined, condition, "and")
    return combined


def c_or(*conditions: Condition) -> Condition:
    """``c1 ∨c c2 ∨c ...``"""
    if not conditions:
        raise ValueError("c_or needs at least one condition")
    combined = conditions[0]
    for condition in conditions[1:]:
        combined = CombinedCondition(combined, condition, "or")
    return combined


def _name(condition: Condition) -> str:
    return getattr(condition, "__name__", repr(condition))
