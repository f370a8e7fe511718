"""RPR007 — the XML tree owns its mutations.

The invariant (PR 16): an :class:`~repro.xmlkit.tree.Element` caches
its child tuple and its children's same-tag ordinals, and drops both
in ``append``, ``remove`` and ``replace_content`` (``drop_text``, which
removes no child, keeps them).  Code elsewhere that assigns
``node._content`` — as the parser's whitespace cleanup and the
dirty-data generator once did — leaves those caches describing content
that is gone: stale children, wrong ``absolute_path()`` strings in OD
tuples, and no test fails until a tree is queried before *and* after.

Pattern: outside the tree module, an assignment, augmented assignment,
``del`` or in-place container mutator whose target is one of the
tree's private attributes on a receiver other than ``self`` (a class
of another module may keep a ``_children`` of its own).  The fix is
one of the tree's mutators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, register, self_attr, write_targets
from ..context import FileContext
from ..findings import Finding


@register
class TreeOwnsItsMutations(Rule):
    code = "RPR007"
    name = "tree-owns-its-mutations"
    summary = (
        "Element content changes only through append/remove/"
        "replace_content, which drop the cached children and ordinals"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == ctx.config.tree_module:
            return
        for node in ast.walk(ctx.tree):
            for target in write_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in ctx.config.tree_private_attrs
                    and self_attr(target) is None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"writes .{target.attr} of an XML element outside "
                        f"{ctx.config.tree_module}; its cached children and "
                        "path ordinals would go stale — use append(), "
                        "remove() or replace_content()",
                    )
