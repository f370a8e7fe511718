"""RPR006 — one pool module, and its payloads pickle.

Everything submitted to the worker pool — worker functions,
initializers, their arguments — crosses a process boundary by pickle.
Lambdas and closures do not pickle; bound methods drag their whole
instance (XML elements, for a session or OD) into every task.  The
runtime guard (``repro.engine.pool.picklable``) ends such runs on the
serial backend with only a recorded reason to show for it, so the
mistake costs all parallelism without failing a test.  And pools open
in one module, ``repro.engine.pool``, which turns a dead worker into the
serial fallback instead of a hang.

Pattern: a pool-submission method (``submit``/``map``/``imap``/...) on a
receiver whose name mentions pool/executor, or the ``initializer=`` of
a call whose callee's name does (``open_pool``), given a lambda, a
closure or a ``self.<method>`` — plus any lambda anywhere in the call's
arguments; and a ``Pool(...)`` or ``ProcessPoolExecutor(...)``
constructor outside the configured pool module.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..base import Rule, register, unparse
from ..context import FileContext
from ..findings import Finding

_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply", "apply_async"}
)
_POOL_NAME = re.compile(r"(?i)pool|executor")
_CONSTRUCTORS = frozenset({"Pool", "ProcessPoolExecutor"})


@register
class UnpicklablePoolPayload(Rule):
    code = "RPR006"
    name = "unpicklable-pool-payload"
    summary = (
        "pool payloads must be module-level callables: lambdas/closures "
        "do not pickle, bound methods ship the whole instance"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        nested = self._nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee in _CONSTRUCTORS and ctx.module != ctx.config.pool_module:
                yield self.finding(
                    ctx,
                    node,
                    f"{callee}(...) outside {ctx.config.pool_module}: open "
                    "worker processes through its open_pool(), which ends "
                    "a run whose worker dies on the serial path",
                )
            payloads: list[tuple[ast.AST, str]] = []
            if self._is_pool_submission(node):
                if node.args:
                    payloads.append((node.args[0], "worker function"))
                for keyword in node.keywords:
                    if keyword.arg in ("func", "initializer"):
                        payloads.append((keyword.value, keyword.arg))
            elif _POOL_NAME.search(callee):
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        payloads.append((keyword.value, "initializer"))
            else:
                continue
            flagged: set[int] = set()
            for payload, role in payloads:
                message = self._payload_problem(payload, role, nested)
                if message is not None:
                    flagged.add(id(payload))
                    yield self.finding(ctx, payload, message)
            # Lambdas hiding anywhere else in the submission (initargs
            # tuples, chunk sizes computed lazily, ...).
            for child in ast.walk(node):
                if isinstance(child, ast.Lambda) and id(child) not in flagged:
                    yield self.finding(
                        ctx,
                        child,
                        "lambda inside a pool submission cannot pickle "
                        "across the process boundary; hoist it to a "
                        "module-level function",
                    )

    # ------------------------------------------------------------------
    @staticmethod
    def _is_pool_submission(node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
            and _POOL_NAME.search(unparse(node.func.value)) is not None
        )

    @staticmethod
    def _nested_function_names(tree: ast.AST) -> frozenset[str]:
        """Names of functions defined inside other functions (closures)."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(child.name)
        return frozenset(names)

    def _payload_problem(
        self, payload: ast.AST, role: str, nested: frozenset[str]
    ) -> Optional[str]:
        if isinstance(payload, ast.Lambda):
            return (
                f"lambda as pool {role} cannot pickle across the process "
                "boundary (the run ends on the serial backend); "
                "use a module-level function"
            )
        if isinstance(payload, ast.Name) and payload.id in nested:
            return (
                f"nested function {payload.id!r} as pool {role} is a "
                "closure and cannot pickle; hoist it to module level"
            )
        if (
            isinstance(payload, ast.Attribute)
            and isinstance(payload.value, ast.Name)
            and payload.value.id == "self"
        ):
            return (
                f"bound method self.{payload.attr} as pool {role} pickles "
                "the entire instance into every task (sessions/ODs carry "
                "XML elements); use a module-level function over "
                "element-stripped payloads"
            )
        return None


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""
