"""The invariant rules, one module per PR-discovered contract.

Importing this package registers every rule with
:data:`repro.analysis.base.RULES`:

* ``RPR001`` live-container escape            (PRs 1, 6)
* ``RPR002`` process-randomized ``hash()``    (PR 3)
* ``RPR003`` frozen-index discipline          (PR 6)
* ``RPR004`` non-atomic read-modify-write     (PR 6)
* ``RPR005`` nondeterministic set ordering    (parity contract, all PRs)
* ``RPR006`` unpicklable pool payloads        (PRs 1, 5)
* ``RPR007`` tree mutation outside ``xmlkit.tree`` (PR 16)
* ``RPR008`` import-on-use on the entry paths   (PR 24)
"""

from . import (  # noqa: F401
    atomic,
    containers,
    frozen,
    hashing,
    imports,
    ordering,
    pickling,
    tree,
)

from ..base import RULES, all_rules

__all__ = ["RULES", "all_rules"]
