"""Rule base class, the rule registry, and shared AST predicates.

A rule is one invariant encoded as an AST pattern: it receives a
:class:`~repro.analysis.context.FileContext` and yields
:class:`~repro.analysis.findings.Finding` values.  Rules register by
decorating the class with :func:`register`; the checker runs every
registered rule unless given an explicit subset.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Type

from .context import FileContext
from .findings import Finding


class Rule:
    """One statically checkable invariant."""

    #: Stable finding code (``RPR0xx``).
    code: str = ""
    #: Short kebab-case rule name (shown in ``lint --rules``).
    name: str = ""
    #: One-line statement of the contract the rule encodes.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            symbol=symbol or ctx.qualname(node),
        )


#: code -> rule class, in registration order.
RULES: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [RULES[code]() for code in sorted(RULES)]


# ----------------------------------------------------------------------
# Shared AST predicates
# ----------------------------------------------------------------------
def self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``f(...)`` -> ``f``, ``a.b(...)`` -> ``b``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


#: Constructor names whose result is a live mutable container.
#: ``array``/``bytearray`` count too: a flat buffer is as mutable as a
#: dict.
CONTAINER_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
        "array",
        "bytearray",
    }
)

#: Mapping-view accessors — always a live window onto the dict.
VIEW_METHODS = frozenset({"keys", "values", "items"})

#: Method names that mutate a container in place.
CONTAINER_MUTATORS = frozenset(
    {
        "add",
        "append",
        "extend",
        "insert",
        "update",
        "clear",
        "pop",
        "popitem",
        "remove",
        "discard",
        "setdefault",
        "merge",
        "merge_from",
        "sort",
        "reverse",
    }
)


def write_targets(node: ast.AST) -> list[ast.AST]:
    """The expressions a node writes: assignment and ``del`` targets, or
    the receiver of an in-place container mutator; ``x[...]`` -> ``x``."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in CONTAINER_MUTATORS
    ):
        targets = [node.func.value]
    else:
        return []
    return [
        target.value if isinstance(target, ast.Subscript) else target
        for target in targets
    ]


def is_container_expr(node: ast.AST) -> bool:
    """Does this expression build a mutable container?"""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    ):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in CONTAINER_CALLS
    return False


def container_attributes(classdef: ast.ClassDef) -> frozenset[str]:
    """Instance attributes initialized to mutable containers.

    Sources of truth: ``self.X = <container>`` in ``__init__`` /
    ``__post_init__`` and dataclass fields declared with
    ``field(default_factory=<container>)`` or a container annotation's
    constructor call.  A pure-AST under-approximation — attributes
    bound from opaque calls stay unknown, which keeps the rule quiet
    rather than noisy.
    """
    attrs: set[str] = set()
    for statement in classdef.body:
        # Dataclass field: ``x: list[int] = field(default_factory=list)``
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.value, ast.Call
        ):
            if call_name(statement.value) == "field":
                for keyword in statement.value.keywords:
                    if (
                        keyword.arg == "default_factory"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in CONTAINER_CALLS
                        and isinstance(statement.target, ast.Name)
                    ):
                        attrs.add(statement.target.id)
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name not in ("__init__", "__post_init__"):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr and is_container_expr(node.value):
                        attrs.add(attr)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = self_attr(node.target)
                if attr and is_container_expr(node.value):
                    attrs.add(attr)
    return frozenset(attrs)


def methods(classdef: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for statement in classdef.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield statement  # type: ignore[misc]


def walk_method(method: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk a method's body without descending into nested classes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(method))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def references_attr(tree: ast.AST, attr: str) -> bool:
    """Does any ``self.<attr>`` reference appear under ``tree``?"""
    return any(self_attr(node) == attr for node in ast.walk(tree))


def unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "<expr>"
