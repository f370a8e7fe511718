"""RPR005 — set iteration must not feed ordered output in parity modules.

The invariant (the paper-reproduction contract every PR is pinned by):
detection results, serialized documents, and decision sequences are
**bit-identical** across serial/process backends and worker counts.
Python sets iterate in hash order, which varies per process
(string hash randomization) — so materializing a set directly into a
list/tuple/joined string inside a parity-critical module bakes
per-process order into output that must be deterministic.  Every
producer sorts first (``sorted(...)``), which is why the pipeline's
canonical pair order works at all.

Pattern: in a configured parity module, a set-typed expression (set
literals/comprehensions, ``set()``/``frozenset()`` calls, variables
assigned from those, unions of them, and the index's known
set-returning methods) appearing directly as the iterable of
``list()``/``tuple()``/``enumerate()``/``str.join()`` or of a list
comprehension.  Folding a set into another set, membership tests, and
``sorted(...)`` stay quiet — order-insensitive consumption is the
point of using sets.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..base import Rule, register, unparse
from ..context import FileContext
from ..findings import Finding

_ORDERED_CALLS = frozenset({"list", "tuple", "enumerate"})
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})


@register
class NondeterministicOrdering(Rule):
    code = "RPR005"
    name = "nondeterministic-set-ordering"
    summary = (
        "parity-critical modules must sorted() set iteration before it "
        "reaches ordered results or serialized output"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_parity_module():
            return
        # Scopes: the module itself plus every function (nested walks
        # stay inside their defining function's scope approximation).
        scopes: list[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: set[int] = set()
        for scope in scopes:
            set_vars = self._set_variables(scope, ctx)
            for node in ast.walk(scope):
                sink = self._ordered_sink(node, set_vars, ctx)
                if sink is None or id(node) in seen:
                    continue
                seen.add(id(node))
                yield self.finding(
                    ctx,
                    node,
                    f"set iteration ({unparse(sink)}) feeds an ordered "
                    "collection in a parity-critical module: set order "
                    "varies per process and breaks bit-identical "
                    "results — wrap the set in sorted(...) first",
                )

    # ------------------------------------------------------------------
    def _set_variables(self, scope: ast.AST, ctx: FileContext) -> set[str]:
        """Names assigned set-typed values anywhere in this scope."""
        names: set[str] = set()
        # Two passes so a var assigned from another set var resolves.
        for _ in range(2):
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and self._is_set_expr(
                    node.value, names, ctx
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    annotation = node.annotation
                    base = annotation.value if isinstance(
                        annotation, ast.Subscript
                    ) else annotation
                    base_name = (
                        base.id
                        if isinstance(base, ast.Name)
                        else base.attr
                        if isinstance(base, ast.Attribute)
                        else None
                    )
                    if base_name in _SET_ANNOTATIONS:
                        names.add(node.target.id)
        return names

    def _is_set_expr(
        self, node: ast.AST, set_vars: set[str], ctx: FileContext
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ctx.config.set_returning_methods
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_vars, ctx) or self._is_set_expr(
                node.right, set_vars, ctx
            )
        return False

    def _ordered_sink(
        self, node: ast.AST, set_vars: set[str], ctx: FileContext
    ) -> Optional[ast.AST]:
        """The set-typed expression this node materializes in order."""
        if isinstance(node, ast.Call):
            callee: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id in _ORDERED_CALLS:
                callee = node.func.id
            elif (
                isinstance(node.func, ast.Attribute) and node.func.attr == "join"
            ):
                callee = "join"
            if callee and node.args:
                iterable = node.args[0]
                # ``list(x for x in S)`` — look through the genexp.
                if isinstance(iterable, ast.GeneratorExp):
                    iterable = iterable.generators[0].iter
                if self._is_set_expr(iterable, set_vars, ctx):
                    return iterable
        elif isinstance(node, ast.ListComp):
            iterable = node.generators[0].iter
            if self._is_set_expr(iterable, set_vars, ctx):
                return iterable
        return None
