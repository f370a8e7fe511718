"""RPR008 — a module on an entry path imports what it runs.

The invariant (PR 24): a process runs one operation and compiles every
module it imports, so the import graph follows the call graph.  Every
package ``__init__`` resolves its exports on first access
(:mod:`repro._lazy`); a module that imports *through* a package pays
for nothing yet hides which submodule it depends on, and one that
imports a deferred module at its top — the worker pool, the parallel
ingestor, the daemon, the tooling packages —
puts it back on every warm open and batch run.

Pattern, in the modules the config lists as entry-path: a module-level
``from <package> import Name`` where ``<package>`` is one of the
lazily exporting packages, or a module-level import of (or from) a
module the config lists as deferred.  Imports inside a function are
use-site imports and pass; so do ``if TYPE_CHECKING:`` blocks; a
deferred module is off the entry path by definition and may import its
peers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, register
from ..context import FileContext, ancestors, enclosing, module_under
from ..findings import Finding


def _type_checking_only(node: ast.AST) -> bool:
    """Inside an ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    for outer in ancestors(node):
        if isinstance(outer, ast.If):
            test = outer.test
            if getattr(test, "attr", getattr(test, "id", "")) == "TYPE_CHECKING":
                return True
    return False


@register
class ImportOnUse(Rule):
    code = "RPR008"
    name = "import-on-use"
    summary = (
        "entry-path modules import from the defining submodule, and "
        "deferred modules only where they are used"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        config = ctx.config
        if not module_under(ctx.module, config.entry_path_modules) or module_under(
            ctx.module, config.deferred_modules
        ):
            return
        package = ctx.module.split(".")
        if not ctx.path.endswith("__init__.py"):
            package = package[:-1]
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                base = package[: len(package) - (node.level - 1)] if node.level else []
                targets = [".".join(base + ([node.module] if node.module else []))]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            in_function = enclosing(
                node, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda
            )
            if in_function is not None or _type_checking_only(node):
                continue
            for target in targets:
                if module_under(target, config.deferred_modules):
                    yield self.finding(
                        ctx,
                        node,
                        f"module-level import of {target}, which only a "
                        "rarely taken branch runs; import it in that "
                        "branch (repro._lazy.resolve where the branch "
                        "repeats)",
                    )
                elif isinstance(node, ast.ImportFrom) and target in config.lazy_packages:
                    names = ", ".join(alias.name for alias in node.names)
                    yield self.finding(
                        ctx,
                        node,
                        f"imports {names} through the package {target}; "
                        "import from the defining submodule",
                    )
