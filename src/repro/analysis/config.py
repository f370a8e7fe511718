"""Checker configuration: which classes/modules carry which contracts.

The rules are generic AST patterns; this config binds them to the
concrete contracts of this codebase (see ROADMAP "Static analysis &
invariants").  Everything is overridable so rule fixtures can test the
patterns against synthetic classes without masquerading as the real
ones.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LintConfig:
    """Binds the invariant rules to this codebase's contracts."""

    #: Classes whose instances are shared across reader threads (the
    #: serve layer's lock-free ``match()`` path) or across requests.
    #: RPR001 forbids their public methods leaking live containers;
    #: RPR004 forbids unlocked read-modify-writes on their attributes.
    shared_classes: frozenset[str] = frozenset(
        {
            "CorpusIndex",
            # The term state a frozen index serves to lock-free readers,
            # and the similar-value indexes it holds: the no-live-escape
            # contract applies verbatim.
            "IndexPartial",
            "QGramIndex",
            "DetectionSession",
            "DogmatixSimilarity",
            "ObjectFilter",
            "SessionRegistry",
            "SessionEntry",
            "ReadWriteLock",
            "IndexStore",
            # Parsed trees: a served ``match()`` reads paths and
            # children of corpus elements from every reader thread.
            "Element",
            "ObjectDescription",  # ... and fills each OD's ``by_kind``
        }
    )

    #: Classes pinned read-only after build (``freeze()``/``thaw()``
    #: seam).  RPR003 restricts state mutation to the sanctioned
    #: writer set below.  The state it holds (``IndexPartial`` and its
    #: ``QGramIndex`` values) stays out: the index that owns it enforces
    #: the pin.
    frozen_classes: frozenset[str] = frozenset({"CorpusIndex"})

    #: The sanctioned writers of a frozen class: construction, the one
    #: delta-merge seam, and the pin itself.  Writers other than
    #: ``__init__``/``freeze``/``thaw`` must also assert mutability
    #: (reference ``self._frozen``) so a frozen instance fails loudly.
    frozen_writers: frozenset[str] = frozenset(
        {"__init__", "merge_partial", "freeze", "thaw"}
    )

    #: Memo-cache attributes exempt from the freeze discipline: their
    #: entries are idempotent per-key values computed from frozen
    #: state, and CPython dict assignment is atomic (see
    #: ``CorpusIndex.freeze``).
    frozen_memo_attrs: frozenset[str] = frozenset(
        {"_similar_cache", "_foreign_cache", "_pair_idf_cache"}
    )

    #: Module prefixes where result/serialization ordering feeds the
    #: bit-identical parity contract — RPR005 flags ordered collections
    #: built directly from set iteration there.
    parity_modules: tuple[str, ...] = (
        "repro.framework",
        "repro.core",
        "repro.engine",
        "repro.api",
        "repro.ingest",
        "repro.serve",
        "repro.strings.qgram",
    )

    #: Known set-returning methods of the index/API surface — the
    #: type-inference seed for RPR005 (pure AST analysis cannot see
    #: return annotations across modules).
    set_returning_methods: frozenset[str] = frozenset(
        {
            "occurrences",
            "objects_with_key",
            "objects_with_similar",
            "block_members",
            "block_keys",
        }
    )

    #: Where RPR002 points violators for a process-stable hash.
    stable_hash_hint: str = "zlib.crc32 over a canonical encoding"

    #: The one module that may write an XML element's private state,
    #: and the attributes that state is (RPR007): the content list and
    #: the child tuple and path ordinal derived from it.
    tree_module: str = "repro.xmlkit.tree"
    tree_private_attrs: frozenset[str] = frozenset(
        {"_content", "_children", "_ordinal"}
    )

    #: The one module that may open a process pool (RPR006).
    pool_module: str = "repro.engine.pool"

    #: Modules a warm open, a batch run or a CLI lookup loads: RPR008
    #: keeps their module-level imports on the defining submodules and
    #: off the deferred modules below.
    entry_path_modules: tuple[str, ...] = (
        "repro.api",
        "repro.core",
        "repro.framework",
        "repro.strings",
        "repro.xmlkit",
        "repro.ingest.store",
        "repro.engine.policy",
    )

    #: Packages whose ``__init__`` exports lazily (``repro._lazy``):
    #: importing a name through one names no dependency.
    lazy_packages: frozenset[str] = frozenset(
        {
            "repro",
            "repro.api",
            "repro.baselines",
            "repro.core",
            "repro.datagen",
            "repro.engine",
            "repro.eval",
            "repro.framework",
            "repro.ingest",
            "repro.serve",
            "repro.strings",
            "repro.xmlkit",
        }
    )

    #: Modules only a rarely taken branch runs — the worker pool,
    #: parallel ingestion, the daemon,
    #: the tooling and evaluation packages.  Off the entry path by
    #: definition, so they may import each other freely.
    deferred_modules: tuple[str, ...] = (
        "repro.engine.pool",
        "repro.ingest.builder",
        "repro.serve",
        "repro.analysis",
        "repro.datagen",
        "repro.eval",
        "repro.baselines",
    )


#: The default binding for this repository.
DEFAULT_CONFIG = LintConfig()
