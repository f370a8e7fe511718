"""RPR004 — read-modify-write on shared state needs a lock (or a pragma).

The invariant (learned in PR 6): ``self.x += 1`` and
``self.x = self.x + ...`` are not atomic — the interpreter reads,
computes, and writes in separate bytecodes, so two threads interleaving
on a shared instance lose updates.  The foreign-sentinel-id allocator
was exactly this bug: two concurrent ``match(element)`` calls drew the
same id and conflated per-id filter memos.

Pattern: inside a configured shared class, an augmented assignment on
``self.X``/``self.X[...]``, or a plain assignment whose right-hand side
reads the same ``self.X``, lexically outside every ``with <lock>``
block.  "Lock-like" context managers are recognized by name
(``lock``/``cond``/``gate``/``mutex``, case-insensitive).
Constructors are exempt — the instance is not shared yet.  Deliberate
exceptions (informational counters whose lost increments are
acceptable, methods serialized by an *external* writer lock) carry
``# repro: allow[RPR004]`` with a one-line justification.

A second pattern covers the *check-then-act* shape that slipped past
the first: a method reads ``self.X`` (``self.X.get(...)``, ``k in
self.X``, ``self.X[...]``), later publishes ``self.X[...] = value``,
and also mutates a *second* attribute (``self.Y.append(...)`` and
friends) — all outside a lock.  Two threads passing the check together
both publish and both run the side effect, so the companion container
double-records (one entry per key in the memo, two in the companion
list).  Memo-only publication with no companion side effect stays
quiet — racing writers of an idempotent cache merely waste work.  The
fix shape: publish via ``dict.setdefault`` and act only on the value
that won, as ``SessionRegistry._open`` does with its per-digest build
gate, so every racer waits on the one gate.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..base import Rule, methods, register, self_attr, unparse, walk_method
from ..context import FileContext, ancestors
from ..findings import Finding

_LOCK_NAME = re.compile(r"(?i)lock|cond|gate|mutex|sem")
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})
#: In-place mutators that make a check-then-act publish observable: a
#: losing racer that also runs one of these double-records somewhere.
_CHECK_THEN_ACT_MUTATORS = frozenset(
    {"add", "append", "extend", "insert", "update"}
)


@register
class NonAtomicReadModifyWrite(Rule):
    code = "RPR004"
    name = "non-atomic-read-modify-write"
    summary = (
        "read-modify-write on thread-shared attributes must hold a "
        "lock (+= is not atomic)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for classdef in ctx.classes():
            if classdef.name not in ctx.config.shared_classes:
                continue
            for method in methods(classdef):
                if method.name in _CONSTRUCTORS:
                    continue  # not shared until construction returns
                for node in walk_method(method):
                    attr = self._rmw_attr(node)
                    if attr is None or self._under_lock(node):
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"read-modify-write on shared attribute "
                        f"self.{attr} outside a lock: two threads "
                        "interleaving here lose an update (the PR 6 "
                        "sentinel-id race); hold the owning lock, use an "
                        "atomic primitive (itertools.count), or annotate "
                        "why the race is benign",
                        symbol=f"{classdef.name}.{method.name}",
                    )
                yield from self._check_then_act(ctx, classdef, method)

    def _check_then_act(
        self, ctx: FileContext, classdef: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        """Unlocked check of ``self.X`` -> ``self.X[...] = v`` publish,
        with a companion mutation of another attribute (see module
        docstring)."""
        checks: dict[str, int] = {}
        mutated: set[str] = set()
        publishes: list[tuple[ast.Assign, str]] = []
        for node in walk_method(method):
            if self._under_lock(node):
                continue
            checked = self._checked_attr(node)
            if checked is not None:
                checks[checked] = min(
                    checks.get(checked, node.lineno), node.lineno
                )
            if isinstance(node, ast.Call):
                receiver = self._mutator_receiver(node)
                if receiver is not None:
                    mutated.add(receiver)
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
            ):
                attr = self_attr(node.targets[0].value)
                if attr is not None:
                    publishes.append((node, attr))
        for node, attr in publishes:
            if checks.get(attr, node.lineno) >= node.lineno:
                continue  # no earlier unlocked check of the same attr
            if not (mutated - {attr}):
                continue  # idempotent memo publication: benign race
            companions = ", ".join(sorted(mutated - {attr}))
            yield self.finding(
                ctx,
                node,
                f"check-then-act on shared attribute self.{attr} "
                f"outside a lock: two threads passing the earlier "
                f"check both publish self.{attr}[...] and both run "
                f"the companion mutation of self.{companions}, "
                "double-recording one key's side effect; "
                f"publish via self.{attr}.setdefault(...) and run "
                "side effects only on the winning entry, hold the "
                "owning lock, or annotate why the race is benign",
                symbol=f"{classdef.name}.{method.name}",
            )

    @staticmethod
    def _checked_attr(node: ast.AST) -> Optional[str]:
        """The ``self`` attribute this expression *checks*, if any:
        ``self.X.get(...)``, ``k in self.X``, or a read of
        ``self.X[...]``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
        ):
            return self_attr(node.func.value)
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
        ):
            return self_attr(node.comparators[0])
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            return self_attr(node.value)
        return None

    @staticmethod
    def _mutator_receiver(node: ast.Call) -> Optional[str]:
        """``self.Y.append(...)`` (also through ``self.Y[k].append``)
        -> ``"Y"``."""
        func = node.func
        if (
            not isinstance(func, ast.Attribute)
            or func.attr not in _CHECK_THEN_ACT_MUTATORS
        ):
            return None
        receiver = func.value
        if isinstance(receiver, ast.Subscript):
            receiver = receiver.value
        return self_attr(receiver)

    @staticmethod
    def _rmw_attr(node: ast.AST) -> Optional[str]:
        """The ``self`` attribute this statement RMWs, if any."""
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                target = target.value
            return self_attr(target)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = self_attr(node.targets[0])
            if attr is not None and any(
                self_attr(sub) == attr for sub in ast.walk(node.value)
            ):
                return attr
        return None

    @staticmethod
    def _under_lock(node: ast.AST) -> bool:
        for ancestor in ancestors(node):
            if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
                continue
            for item in ancestor.items:
                if _LOCK_NAME.search(unparse(item.context_expr)):
                    return True
        return False
