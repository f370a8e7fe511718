"""RPR001 — live containers must not escape shared classes.

The invariant (learned in PRs 1 and 6): classes whose instances are
read concurrently — the frozen ``CorpusIndex`` behind lock-free
``match()``, the session, the serve registry — must hand out
*snapshots*, never their live internal lists/dicts/sets or dict views.
A leaked live container lets any caller mutate shared state without a
lock (``similar_values()`` returning its memo list, PR 6) or observe a
structure mid-mutation (``block_terms()`` returning a ``.keys()`` view
a concurrent ``extend()`` grows — exactly the PR 6 bug class).

Pattern: a public method (or property) of a configured shared class
returning ``self._x`` where ``_x`` is a known container attribute,
returning any ``self.*.keys()/.values()/.items()`` mapping view, or
returning ``memoryview(self._x)`` — a zero-copy window onto a live
buffer (an ``array`` or ``bytearray``) that tracks, and
for writable buffers permits, mutation of internal state.  The fix is
a ``tuple(...)``/``frozenset(...)``/``bytes(...)`` snapshot at the
boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..base import (
    Rule,
    VIEW_METHODS,
    container_attributes,
    methods,
    register,
    self_attr,
    walk_method,
)
from ..context import FileContext
from ..findings import Finding


@register
class LiveContainerEscape(Rule):
    code = "RPR001"
    name = "live-container-escape"
    summary = (
        "public methods of thread-shared classes must return snapshots, "
        "not live internal containers or dict views"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for classdef in ctx.classes():
            if classdef.name not in ctx.config.shared_classes:
                continue
            containers = container_attributes(classdef)
            for method in methods(classdef):
                if method.name.startswith("_"):
                    continue  # private surface may hand out live state
                for node in walk_method(method):
                    if not isinstance(node, ast.Return) or node.value is None:
                        continue
                    message = self._escape_message(node.value, containers)
                    if message is not None:
                        yield self.finding(
                            ctx,
                            node,
                            message,
                            symbol=f"{classdef.name}.{method.name}",
                        )

    def _escape_message(
        self, value: ast.AST, containers: frozenset[str]
    ) -> Optional[str]:
        attr = self_attr(value)
        if attr is not None and attr.startswith("_") and attr in containers:
            return (
                f"live container attribute self.{attr} escapes a shared "
                "class; return a tuple/frozenset snapshot (callers must "
                "not be able to mutate — or watch mutation of — internal "
                "state)"
            )
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in VIEW_METHODS
            and not value.args
        ):
            owner = self_attr(value.func.value)
            if owner is not None:
                return (
                    f"live dict view self.{owner}.{value.func.attr}() "
                    "escapes a shared class; views track mutation and "
                    "break iterating readers during extend() — snapshot "
                    "with tuple(...) instead"
                )
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "memoryview"
            and len(value.args) == 1
        ):
            owner = self_attr(value.args[0])
            if owner is not None and owner.startswith("_"):
                return (
                    f"memoryview over self.{owner} escapes a shared "
                    "class; a view is a live window onto the buffer "
                    "(writable for array/bytearray) — return "
                    "bytes(...)/tuple(...) or hand out items instead"
                )
        return None
