"""RPR003 — frozen-index discipline: mutation only via sanctioned writers.

The invariant (established in PR 6): the standing ``CorpusIndex`` is
pinned read-only after build (``freeze()``/``thaw()``), so the serve
layer's ``match()`` runs lock-free across reader threads.  That only
holds if *every* structural mutation funnels through the sanctioned
writer set — construction, ``merge_partial`` (which asserts
mutability), and the pin itself.  A new method that assigns or mutates
index state directly would silently reopen the race ``freeze()``
exists to make impossible.

Pattern: inside a configured frozen class, an assignment/augmented
assignment/delete targeting ``self.X`` (or ``self.X[...]``), or a call
of a container mutator on ``self.X``, in a method outside
``frozen_writers``.  Memo-cache attributes (``frozen_memo_attrs``) are
exempt: their entries are idempotent per-key values computed from
frozen state (see ``CorpusIndex.freeze``).  Sanctioned writers other
than ``__init__``/``freeze``/``thaw`` must themselves reference
``self._frozen`` — a writer that forgets the mutability assertion is
also a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..base import (
    Rule,
    methods,
    references_attr,
    register,
    self_attr,
    walk_method,
    write_targets,
)
from ..context import FileContext
from ..findings import Finding

#: Writers that need no ``_frozen`` assertion: the object is not yet
#: shared (construction) or the mutation *is* the pin.
_ASSERTION_EXEMPT = frozenset({"__init__", "__post_init__", "freeze", "thaw"})


@register
class FrozenIndexDiscipline(Rule):
    code = "RPR003"
    name = "frozen-index-discipline"
    summary = (
        "frozen-class state mutates only inside the sanctioned writer "
        "set, and writers must assert mutability"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for classdef in ctx.classes():
            if classdef.name not in ctx.config.frozen_classes:
                continue
            for method in methods(classdef):
                mutations = [
                    (node, attr)
                    for node in walk_method(method)
                    for attr in [self._mutated_attr(node, ctx)]
                    if attr is not None
                ]
                if not mutations:
                    continue
                symbol = f"{classdef.name}.{method.name}"
                if method.name not in ctx.config.frozen_writers:
                    for node, attr in mutations:
                        yield self.finding(
                            ctx,
                            node,
                            f"self.{attr} mutates outside the sanctioned "
                            "writer set "
                            f"({', '.join(sorted(ctx.config.frozen_writers))}); "
                            "frozen-class state must stay read-only after "
                            "build — route the mutation through a "
                            "sanctioned writer or extend the writer set "
                            "deliberately",
                            symbol=symbol,
                        )
                elif method.name not in _ASSERTION_EXEMPT and not references_attr(
                    method, "_frozen"
                ):
                    yield self.finding(
                        ctx,
                        method,
                        "sanctioned writer never references self._frozen; "
                        "writers must assert mutability so a frozen "
                        "instance fails loudly instead of racing readers",
                        symbol=symbol,
                    )

    def _mutated_attr(
        self, node: ast.AST, ctx: FileContext
    ) -> Optional[str]:
        """The non-exempt ``self`` attribute this node mutates, if any."""
        for target in write_targets(node):
            attr = self_attr(target)
            if attr is not None:
                return None if attr in ctx.config.frozen_memo_attrs else attr
        return None
