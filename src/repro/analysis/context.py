"""Per-file visitor context: parsed tree, parent links, suppressions.

Every rule receives one :class:`FileContext` per file.  The context
owns the parsed AST (with parent links attached, so rules can ask
"what class/function am I in?"), the dotted module name (so rules can
scope themselves to parity-critical modules), and the suppression
pragmas parsed from comments:

    self.probes += 1  # repro: allow[RPR004] informational counter

A pragma on its own line applies to the next code line; a trailing
pragma applies to its own line.  Multiple codes separate with commas.
Unused pragmas are themselves findings (``RPR000``) — see
:mod:`repro.analysis.checker`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterable, Iterator, Optional

from .config import DEFAULT_CONFIG, LintConfig

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

#: Attribute used for parent back-links on AST nodes (set per tree by
#: :func:`attach_parents`; the leading underscore keeps it out of
#: ``ast.dump`` comparisons).
_PARENT = "_repro_parent"


@dataclass
class Suppression:
    """One ``# repro: allow[...]`` pragma, resolved to its target line."""

    #: The code line the pragma covers.
    line: int
    #: The line the comment itself is on (for unused-pragma reports).
    comment_line: int
    codes: tuple[str, ...] = ()
    #: Codes that actually suppressed a finding (filled by the checker).
    used: set[str] = field(default_factory=set)

    def unused_codes(self) -> tuple[str, ...]:
        return tuple(code for code in self.codes if code not in self.used)


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Map of covered code line -> suppression.

    Trailing pragmas cover their own line.  A pragma on a comment-only
    line covers the next line holding a code token — so a pragma can
    sit above a long statement it annotates.
    """
    suppressions: dict[int, Suppression] = {}
    pending: list[Suppression] = []  # standalone pragmas awaiting code
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    code_lines = {
        token.start[0]
        for token in tokens
        if token.type
        not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        )
    }
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if not match:
            continue
        codes = tuple(
            sorted({part.strip() for part in match.group(1).split(",") if part.strip()})
        )
        if not codes:
            continue
        line = token.start[0]
        if line in code_lines:  # trailing comment: covers its own line
            _install(suppressions, Suppression(line, line, codes))
        else:  # standalone comment: covers the next code line
            pending.append(Suppression(-1, line, codes))
    for suppression in pending:
        targets = [line for line in code_lines if line > suppression.comment_line]
        if targets:
            suppression.line = min(targets)
        _install(suppressions, suppression)
    return suppressions


def _install(suppressions: dict[int, Suppression], new: Suppression) -> None:
    existing = suppressions.get(new.line)
    if existing is None:
        suppressions[new.line] = new
    else:  # merge codes; keep the earliest comment line for reports
        existing.codes = tuple(sorted(set(existing.codes) | set(new.codes)))
        existing.comment_line = min(existing.comment_line, new.comment_line)


# ----------------------------------------------------------------------
# AST navigation
# ----------------------------------------------------------------------
def attach_parents(tree: ast.AST) -> None:
    """Set a parent back-link on every node (rules walk upward a lot)."""
    for parent_node in ast.walk(tree):
        for child in ast.iter_child_nodes(parent_node):
            setattr(child, _PARENT, parent_node)


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, _PARENT, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def enclosing(node: ast.AST, *kinds: type) -> Optional[ast.AST]:
    """Nearest ancestor of one of the given node types."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, kinds):
            return ancestor
    return None


def module_under(module: str, prefixes: Iterable[str]) -> bool:
    """Whether ``module`` is one of ``prefixes`` or lies inside one."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def module_name_for(path: str) -> str:
    """Best-effort dotted module name (anchored at the ``repro`` package).

    Falls back to the file stem for sources outside the package, so
    fixture files still get a usable name.
    """
    parts = list(PurePath(path).with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<string>"


@dataclass
class FileContext:
    """Everything a rule may ask about the file under analysis."""

    path: str
    module: str
    source: str
    tree: ast.Module
    config: LintConfig
    suppressions: dict[int, Suppression]

    @classmethod
    def build(
        cls,
        source: str,
        *,
        path: str = "<string>",
        module: Optional[str] = None,
        config: Optional[LintConfig] = None,
    ) -> "FileContext":
        """Parse and index one file (raises ``SyntaxError`` as-is)."""
        tree = ast.parse(source, filename=path)
        attach_parents(tree)
        return cls(
            path=path,
            module=module if module is not None else module_name_for(path),
            source=source,
            tree=tree,
            config=config or DEFAULT_CONFIG,
            suppressions=parse_suppressions(source),
        )

    # ------------------------------------------------------------------
    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node

    def in_parity_module(self) -> bool:
        return module_under(self.module, self.config.parity_modules)

    def qualname(self, node: ast.AST) -> str:
        """Dotted ``Class.method`` location of a node (may be empty)."""
        names: list[str] = []
        chain: list[ast.AST] = [node, *ancestors(node)]
        for item in chain:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(item.name)
        return ".".join(reversed(names))
