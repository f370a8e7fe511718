"""RPR002 — builtin ``hash()`` is per-process randomized.

The invariant (learned in PR 3): any cross-worker agreement — which
worker owns a key, a pair, an object — must hash with ``zlib.crc32``
over a canonical encoding of the key — CPython seeds string hashing
per interpreter, so two pool workers computing ``hash("title")``
disagree, silently partitioning work differently in every process and
breaking bit-identical parity in ways that only appear under
``workers > 1``.

Pattern: any call of the builtin ``hash`` outside a ``__hash__``
definition (implementing ``__hash__`` in terms of ``hash()`` is the
sanctioned intra-process use).  A deliberate process-local use gets a
``# repro: allow[RPR002]`` pragma with its justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, register
from ..context import FileContext, enclosing
from ..findings import Finding


@register
class BuiltinHash(Rule):
    code = "RPR002"
    name = "process-randomized-hash"
    summary = (
        "builtin hash() is randomized per process; cross-worker "
        "agreement must use zlib.crc32 over a canonical encoding"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                continue
            function = enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            if function is not None and function.name == "__hash__":
                continue  # the one sanctioned intra-process use
            yield self.finding(
                ctx,
                node,
                "builtin hash() is seeded per interpreter and cannot "
                "agree across worker processes; use "
                f"{ctx.config.stable_hash_hint} (or annotate a deliberate "
                "process-local use)",
            )
