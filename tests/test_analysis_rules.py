"""Fixture self-tests for every invariant rule.

Each rule gets at least one snippet it must fire on and the corrected
form it must stay quiet on — the checker is itself held to the
"pre-fix-failing regression test" discipline it enforces.
"""

from textwrap import dedent

import pytest

from repro.analysis import LintConfig, lint_source
from repro.analysis.rules.atomic import NonAtomicReadModifyWrite
from repro.analysis.rules.containers import LiveContainerEscape
from repro.analysis.rules.frozen import FrozenIndexDiscipline
from repro.analysis.rules.hashing import BuiltinHash
from repro.analysis.rules.imports import ImportOnUse
from repro.analysis.rules.ordering import NondeterministicOrdering
from repro.analysis.rules.pickling import UnpicklablePoolPayload
from repro.analysis.rules.tree import TreeOwnsItsMutations

#: Fixture classes are named so the default config treats them as
#: shared/frozen without masquerading as the real modules.
CONFIG = LintConfig(
    shared_classes=frozenset({"Widget"}),
    frozen_classes=frozenset({"Widget"}),
    frozen_writers=frozenset({"__init__", "merge_partial", "freeze", "thaw"}),
    frozen_memo_attrs=frozenset({"_memo"}),
    parity_modules=("repro.fake",),
    set_returning_methods=frozenset({"occurrences"}),
    entry_path_modules=("repro.fake",),
    lazy_packages=frozenset({"repro.gadgets"}),
    deferred_modules=("repro.fake.rarely", "repro.tooling"),
)


def run(rule, source, *, module="repro.fake.widget", config=CONFIG):
    result = lint_source(
        dedent(source),
        path="src/repro/fake/widget.py",
        module=module,
        config=config,
        rules=[rule],
    )
    assert not result.suppressed
    return result.findings


def codes(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# RPR001 — live-container escape
# ----------------------------------------------------------------------
class TestLiveContainerEscape:
    def test_fires_on_live_attribute_return(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self):
                    self._items = []

                def items(self):
                    return self._items
            """,
        )
        assert codes(findings) == ["RPR001"]
        assert findings[0].symbol == "Widget.items"
        assert "self._items" in findings[0].message

    def test_fires_on_dict_view_return(self):
        # The exact pre-fix CorpusIndex.block_terms() shape (PR 6 bug
        # class): a live keys() view escaping a shared class.
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self):
                    self._occurrences = {}

                def block_terms(self):
                    return self._occurrences.keys()
            """,
        )
        assert codes(findings) == ["RPR001"]
        assert "keys" in findings[0].message

    def test_quiet_on_snapshot_return(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self):
                    self._items = []
                    self._occurrences = {}

                def items(self):
                    return tuple(self._items)

                def block_terms(self):
                    return tuple(self._occurrences)
            """,
        )
        assert findings == []

    def test_quiet_on_private_method_and_unshared_class(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self):
                    self._items = []

                def _raw(self):
                    return self._items

            class Unshared:
                def __init__(self):
                    self._items = []

                def items(self):
                    return self._items
            """,
        )
        assert findings == []

    def test_quiet_on_non_container_attribute(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self):
                    self._frozen = False

                def frozen(self):
                    return self._frozen
            """,
        )
        assert findings == []

    def test_fires_on_live_array_attribute_return(self):
        # array is in CONTAINER_CALLS: a flat buffer is as mutable as
        # a dict.
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self, data):
                    self._data = array("I", data)

                def postings(self):
                    return self._data
            """,
        )
        assert codes(findings) == ["RPR001"]
        assert "self._data" in findings[0].message

    def test_fires_on_memoryview_escape(self):
        # A memoryview is a live (and for arrays, writable) window
        # onto the buffer — same escape, zero-copy flavor.
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def window(self):
                    return memoryview(self._data)
            """,
        )
        assert codes(findings) == ["RPR001"]
        assert "memoryview" in findings[0].message

    def test_quiet_on_buffer_snapshots(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                def __init__(self, data):
                    self._data = array("I", data)

                def postings(self):
                    return tuple(self._data)

                def raw(self):
                    return bytes(self._data)

                def local_view(self):
                    return memoryview(bytes(self._data))
            """,
        )
        assert findings == []

    def test_fires_on_dataclass_field_container(self):
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                items: list = field(default_factory=list)

                def all_items(self):
                    return self._items
            """,
        )
        # ``items`` is a container, but ``_items`` was never declared:
        # only declared container attrs fire.
        assert findings == []
        findings = run(
            LiveContainerEscape(),
            """
            class Widget:
                _items: list = field(default_factory=list)

                def all_items(self):
                    return self._items
            """,
        )
        assert codes(findings) == ["RPR001"]


# ----------------------------------------------------------------------
# RPR002 — builtin hash()
# ----------------------------------------------------------------------
class TestBuiltinHash:
    def test_fires_outside_dunder_hash(self):
        findings = run(
            BuiltinHash(),
            """
            def shard_of(key, shards):
                return hash(key) % shards
            """,
        )
        assert codes(findings) == ["RPR002"]
        assert "zlib.crc32" in findings[0].message

    def test_quiet_inside_dunder_hash_and_on_stable_hash(self):
        findings = run(
            BuiltinHash(),
            """
            import zlib

            class Key:
                def __hash__(self):
                    return hash((Key, self.value))

            def shard_of(key, shards):
                return zlib.crc32(repr(key).encode("utf-8")) % shards
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR003 — frozen-index discipline
# ----------------------------------------------------------------------
class TestFrozenIndexDiscipline:
    def test_fires_on_mutation_outside_writer_set(self):
        findings = run(
            FrozenIndexDiscipline(),
            """
            class Widget:
                def grow(self, term, ids):
                    self._occurrences[term] = ids
                    self.total += 1
                    self._by_key.update(ids)
            """,
        )
        assert codes(findings) == ["RPR003", "RPR003", "RPR003"]
        assert all(f.symbol == "Widget.grow" for f in findings)

    def test_fires_on_writer_without_mutability_assertion(self):
        findings = run(
            FrozenIndexDiscipline(),
            """
            class Widget:
                def merge_partial(self, partial):
                    self.total += partial.total
            """,
        )
        assert codes(findings) == ["RPR003"]
        assert "_frozen" in findings[0].message

    def test_quiet_on_disciplined_class(self):
        findings = run(
            FrozenIndexDiscipline(),
            """
            class Widget:
                def __init__(self):
                    self._frozen = False
                    self.total = 0
                    self._memo = {}

                def merge_partial(self, partial):
                    if self._frozen:
                        raise RuntimeError("frozen")
                    self.total += partial.total

                def freeze(self):
                    self._frozen = True

                def thaw(self):
                    self._frozen = False

                def cached(self, key):
                    self._memo[key] = key  # memo attrs stay writable
                    return self._memo[key]

                def reader(self, key):
                    return self.total
            """,
        )
        assert findings == []


    def test_fires_on_post_init_buffer_mutation(self):
        # A frozen class immutable by construction: any post-__init__
        # append onto its buffer is a finding.
        findings = run(
            FrozenIndexDiscipline(),
            """
            class Widget:
                def __init__(self, data):
                    self._data = array("I", data)

                def grow(self, item):
                    self._data.append(item)
            """,
        )
        assert codes(findings) == ["RPR003"]
        assert findings[0].symbol == "Widget.grow"


# ----------------------------------------------------------------------
# Default binding: the index-state classes carry the contracts
# ----------------------------------------------------------------------
class TestIndexStateBinding:
    """The default LintConfig binds every state a frozen index reads
    through — and the value-index shell above the gram state — to the
    shared/frozen contracts, so `lint src/` (pinned clean by
    test_lint_clean.py) actually checks them."""

    def test_the_index_is_the_one_frozen_class(self):
        from repro.analysis.config import DEFAULT_CONFIG

        assert DEFAULT_CONFIG.frozen_classes == {"CorpusIndex"}
        assert "CorpusIndex" in DEFAULT_CONFIG.shared_classes

    def test_dict_states_and_value_index_are_shared_not_frozen(self):
        from repro.analysis.config import DEFAULT_CONFIG

        # A frozen index serves lock-free readers from the dict states,
        # and the counters live in the value index; the dict states are
        # the writable ones, so the pin is their owner's.
        writable = {"DictTermState", "DictValueState"}
        assert writable | {"QGramIndex"} <= DEFAULT_CONFIG.shared_classes
        assert not writable & DEFAULT_CONFIG.frozen_classes

    def test_lazily_filled_read_path_objects_are_shared(self):
        from repro.analysis.config import DEFAULT_CONFIG

        # Reader threads fill an element's child tuple and an OD's
        # grouping by kind on first use.
        assert {"Element", "ObjectDescription"} <= DEFAULT_CONFIG.shared_classes

    def test_statistics_memo_is_exempt_and_state_modules_are_parity(self):
        from repro.analysis.config import DEFAULT_CONFIG

        assert "_statistics_cache" in DEFAULT_CONFIG.frozen_memo_attrs
        assert "repro.strings.value_index" in DEFAULT_CONFIG.parity_modules


# ----------------------------------------------------------------------
# RPR004 — non-atomic read-modify-write
# ----------------------------------------------------------------------
class TestNonAtomicReadModifyWrite:
    def test_fires_on_unlocked_augassign(self):
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def bump(self):
                    self.count += 1
            """,
        )
        assert codes(findings) == ["RPR004"]
        assert "self.count" in findings[0].message

    def test_fires_on_read_modify_write_assignment(self):
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def allocate(self):
                    self.next_id = self.next_id - 1
                    return self.next_id
            """,
        )
        assert codes(findings) == ["RPR004"]

    def test_quiet_under_lock_and_in_constructor(self):
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def __init__(self):
                    self.count = 0
                    self.count += 0  # constructor: not yet shared

                def bump(self):
                    with self._lock:
                        self.count += 1

                def bump_cond(self):
                    with self._cond:
                        self.count += 1

                def rebind(self, items):
                    self.items = list(items)  # plain write, no read
            """,
        )
        assert findings == []

    def test_quiet_on_unshared_class(self):
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Unshared:
                def bump(self):
                    self.count += 1
            """,
        )
        assert findings == []

    def test_fires_on_check_then_act_publish_with_side_effect(self):
        # The exact pre-fix ObjectFilter.decide() shape: unlocked memo
        # check, subscript publish, and a companion list append that
        # double-records when two threads pass the check together.
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def decide(self, key):
                    cached = self._memo.get(key)
                    if cached is not None:
                        return cached
                    decision = self.evaluate(key)
                    self._memo[key] = decision
                    self.decisions.append(decision)
                    return decision
            """,
        )
        assert codes(findings) == ["RPR004"]
        assert "check-then-act" in findings[0].message
        assert "setdefault" in findings[0].message
        assert "self.decisions" in findings[0].message

    def test_fires_on_membership_check_then_act(self):
        # Same race via `in`-membership instead of .get().
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def adopt(self, decisions):
                    for decision in decisions:
                        if decision.key not in self._memo:
                            self._memo[decision.key] = decision
                            self.decisions.append(decision)
            """,
        )
        assert codes(findings) == ["RPR004"]

    def test_quiet_on_setdefault_publication(self):
        # The fixed shape: setdefault picks one winner atomically and
        # the side effect runs only on the winning entry.
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def decide(self, key):
                    cached = self._memo.get(key)
                    if cached is not None:
                        return cached
                    decision = self.evaluate(key)
                    winner = self._memo.setdefault(key, decision)
                    if winner is decision:
                        self.decisions.append(decision)
                    return winner
            """,
        )
        assert findings == []

    def test_quiet_on_idempotent_memo_publication(self):
        # Racing writers of a pure per-key cache merely waste work —
        # no companion side effect, no observable double-record.
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def pair_idf(self, key):
                    cached = self._cache.get(key)
                    if cached is not None:
                        return cached
                    value = self.compute(key)
                    self._cache[key] = value
                    return value
            """,
        )
        assert findings == []

    def test_quiet_on_check_then_act_under_lock(self):
        findings = run(
            NonAtomicReadModifyWrite(),
            """
            class Widget:
                def decide(self, key):
                    with self._lock:
                        cached = self._memo.get(key)
                        if cached is not None:
                            return cached
                        decision = self.evaluate(key)
                        self._memo[key] = decision
                        self.decisions.append(decision)
                        return decision
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR005 — nondeterministic set ordering
# ----------------------------------------------------------------------
class TestNondeterministicOrdering:
    def test_fires_on_set_into_list(self):
        findings = run(
            NondeterministicOrdering(),
            """
            def result_rows(index, key, value):
                members = index.occurrences(key, value)
                return list(members)
            """,
        )
        assert codes(findings) == ["RPR005"]
        assert "sorted" in findings[0].message

    def test_fires_on_set_literal_comprehension_and_join(self):
        findings = run(
            NondeterministicOrdering(),
            """
            def render(values):
                parts = {v.strip() for v in values}
                header = ",".join(parts)
                rows = [p.upper() for p in parts]
                return header, rows, tuple(parts | {"x"})
            """,
        )
        assert codes(findings) == ["RPR005", "RPR005", "RPR005"]

    def test_quiet_when_sorted_or_set_consumed_unordered(self):
        findings = run(
            NondeterministicOrdering(),
            """
            def result_rows(index, key, value):
                members = index.occurrences(key, value)
                for member in members:   # folding into a set is fine
                    pass
                union = members | {1}
                if 3 in members:
                    pass
                return list(sorted(members)), tuple(sorted(union))
            """,
        )
        assert findings == []

    def test_quiet_outside_parity_modules(self):
        findings = run(
            NondeterministicOrdering(),
            """
            def rows(values):
                return list(set(values))
            """,
            module="repro.datagen.movies",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR006 — unpicklable pool payloads
# ----------------------------------------------------------------------
class TestUnpicklablePoolPayload:
    def test_fires_on_lambda_payload(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            def fan_out(pool, items):
                return pool.map(lambda item: item * 2, items)
            """,
        )
        assert codes(findings) == ["RPR006"]
        assert "lambda" in findings[0].message

    def test_fires_on_closure_payload(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            def fan_out(pool, items, factor):
                def scale(item):
                    return item * factor

                return pool.imap(scale, items)
            """,
        )
        assert codes(findings) == ["RPR006"]
        assert "closure" in findings[0].message

    def test_fires_on_bound_method_and_lambda_initializer(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            class Runner:
                def run(self, open_pool, items):
                    with open_pool(2, initializer=lambda: None) as pool:
                        return pool.map(self.score, items)
            """,
        )
        assert sorted(codes(findings)) == ["RPR006", "RPR006"]
        messages = " ".join(f.message for f in findings)
        assert "bound method" in messages and "lambda" in messages

    def test_quiet_on_module_level_function(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            def _work(item):
                return item * 2

            def _init(state):
                pass

            def fan_out(open_pool, items):
                with open_pool(2, initializer=_init, initargs=(1,)) as pool:
                    return list(pool.map(_work, items))
            """,
        )
        assert findings == []

    @pytest.mark.parametrize(
        "constructor",
        [
            "multiprocessing.get_context().Pool(2)",
            "Pool(processes=2)",
            "ProcessPoolExecutor(2, initializer=_init)",
            "futures.ProcessPoolExecutor(max_workers=2)",
        ],
    )
    def test_fires_on_a_pool_opened_outside_the_pool_module(self, constructor):
        findings = run(
            UnpicklablePoolPayload(),
            f"""
            def _init():
                pass

            def fan_out(items):
                with {constructor} as pool:
                    return list(pool.map(len, items))
            """,
        )
        assert codes(findings) == ["RPR006"]
        assert "repro.engine.pool" in findings[0].message

    def test_quiet_on_a_pool_opened_inside_the_pool_module(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            from concurrent.futures import ProcessPoolExecutor

            def open_pool(workers, initializer=None, initargs=()):
                return ProcessPoolExecutor(
                    workers, initializer=initializer, initargs=initargs
                )
            """,
            module="repro.engine.pool",
        )
        assert findings == []

    def test_fires_on_closure_initializer_of_an_executor(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            from concurrent.futures import ProcessPoolExecutor

            def open_pool(workers, state):
                def install():
                    globals().update(state)

                return ProcessPoolExecutor(workers, initializer=install)
            """,
            module="repro.engine.pool",
        )
        assert codes(findings) == ["RPR006"]
        assert "closure" in findings[0].message

    def test_fires_on_lambda_mapped_by_an_executor(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            def fan_out(executor, items):
                return list(executor.map(lambda item: item * 2, items))
            """,
        )
        assert codes(findings) == ["RPR006"]
        assert "lambda" in findings[0].message

    def test_quiet_on_builtin_map(self):
        findings = run(
            UnpicklablePoolPayload(),
            """
            def transform(items):
                return map(lambda item: item * 2, items)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR007 — the XML tree owns its mutations
# ----------------------------------------------------------------------
class TestTreeOwnsItsMutations:
    def test_fires_on_content_assignment(self):
        findings = run(
            TreeOwnsItsMutations(),
            """
            def set_text(node, value):
                node._content = [value]
            """,
        )
        assert codes(findings) == ["RPR007"]
        assert "replace_content" in findings[0].message

    def test_fires_on_in_place_mutation_delete_and_cache_write(self):
        findings = run(
            TreeOwnsItsMutations(),
            """
            def meddle(node, child):
                node._content.append(child)
                del node._content[0]
                node.parent._children = None
                child._ordinal = 2
            """,
        )
        assert codes(findings) == ["RPR007"] * 4

    def test_quiet_inside_the_tree_module(self):
        findings = run(
            TreeOwnsItsMutations(),
            """
            def detach(child):
                child.parent._content.remove(child)
                child.parent._children = None
            """,
            module="repro.xmlkit.tree",
        )
        assert findings == []

    def test_quiet_on_mutators_reads_and_a_class_own_attribute(self):
        findings = run(
            TreeOwnsItsMutations(),
            """
            class SchemaNode:
                def __init__(self):
                    self._children = []

                def add(self, child):
                    self._children.append(child)

            def set_text(node, value):
                node.replace_content([value])
                return len(node._content)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR008 — import on use
# ----------------------------------------------------------------------
class TestImportOnUse:
    def test_fires_on_an_import_through_a_package(self):
        findings = run(
            ImportOnUse(),
            """
            from ..gadgets import Gear, Spring
            """,
        )
        assert codes(findings) == ["RPR008"]
        assert "Gear, Spring" in findings[0].message
        assert "repro.gadgets" in findings[0].message

    def test_fires_on_module_level_imports_of_deferred_modules(self):
        findings = run(
            ImportOnUse(),
            """
            import repro.tooling.report
            from .rarely import Sharder
            from ..tooling import lint_paths

            try:
                from repro.tooling.extra import more
            except ImportError:
                more = None

            class Widget:
                from .rarely import helper
            """,
        )
        assert codes(findings) == ["RPR008"] * 5
        assert "repro.fake.rarely" in findings[1].message

    def test_quiet_on_submodule_use_site_and_typing_only_imports(self):
        findings = run(
            ImportOnUse(),
            """
            import typing
            from typing import TYPE_CHECKING

            from ..gadgets.gear import Gear
            from .peer import helper

            if TYPE_CHECKING:
                from ..gadgets import Spring
                from .rarely import Sharder

            if typing.TYPE_CHECKING:
                import repro.tooling

            def shard(items):
                from .rarely import Sharder

                return Sharder(items)
            """,
        )
        assert findings == []

    def test_quiet_off_the_entry_path_and_inside_a_deferred_module(self):
        source = """
            from ..gadgets import Gear
            from ..tooling import lint_paths
            """
        assert run(ImportOnUse(), source, module="repro.elsewhere.widget") == []
        assert run(ImportOnUse(), source, module="repro.fake.rarely") == []

    def test_a_package_init_resolves_relative_imports_from_itself(self):
        result = lint_source(
            "from .rarely import Sharder\nfrom ..gadgets import Gear\n",
            path="src/repro/fake/__init__.py",
            module="repro.fake",
            config=CONFIG,
            rules=[ImportOnUse()],
        )
        assert codes(result.findings) == ["RPR008"] * 2


# ----------------------------------------------------------------------
# Cross-rule: the full registry on one dirty-then-clean fixture
# ----------------------------------------------------------------------
def test_full_registry_on_dirty_fixture_reports_every_code():
    source = dedent(
        """
        from ..gadgets import Gear

        class Widget:
            def __init__(self):
                self._items = []

            def items(self):
                return self._items

            def grow(self):
                self._items.append(1)
                self.count += 1

        def shard_of(key, shards):
            return hash(key) % shards

        def rows(values):
            return list(set(values))

        def fan_out(pool, items):
            return pool.map(lambda item: item * 2, items)

        def set_text(node, value):
            node._content = [value]
        """
    )
    result = lint_source(
        source,
        path="src/repro/fake/widget.py",
        module="repro.fake.widget",
        config=CONFIG,
    )
    assert sorted({f.code for f in result.findings}) == [
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR007",
        "RPR008",
    ]
    # Deterministic report order: (path, line, col, code).
    assert result.findings == sorted(result.findings)
