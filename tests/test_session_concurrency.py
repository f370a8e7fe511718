"""Shared-state safety of the session read path.

``DetectionSession.match()`` is served concurrently (``repro.serve``),
so its read path must not mutate shared state in racy ways.  Pinned
here:

* foreign sentinel allocation is atomic — the old read-modify-write on
  an instance attribute let two threads draw the same id, conflating
  two foreign elements in per-id memos (``ObjectFilter.decide``);
* the per-theta kept-set memo — ``match(theta_cand=...)`` at a
  non-default threshold used to re-run the full O(n) object-filter
  pass on every call — with single-assignment publication, an LRU
  bound, and parity against the unmemoized pass;
* the object filter's decision memo — ``decide()`` published its memo
  check-then-act, so two threads passing the check together both
  appended to ``decisions`` (double-counting ``pruned_count``); now
  pinned to one recorded decision per object under forced GIL
  switching;
* the index freeze seam — a session's index rejects structural
  mutation outside ``extend()``;
* the per-OD grouping by kind step 5 reads — filled lazily by the
  first reader, so eight threads on a session that never scored a pair
  must answer like one;
* import on use (PR 24) — deferred collaborators are resolved by the
  first call that needs them, so eight threads whose first action is
  ``match()`` on a freshly *loaded* session answer like one, and no
  repeated ``match()`` / ``detect()`` / ``similarity()`` / ``extend()``
  executes an import statement;
* the slow thread-stress: N threads hammer ``match()`` (ids and
  foreign elements) on one warm session while ``extend()`` runs behind
  the writer lock, and every response is bit-identical to a serial
  session in the corresponding state.
"""

from __future__ import annotations

import builtins
import opcode
import sys
import threading

import pytest

import repro._lazy as lazy_module
from repro.api import Corpus, DetectionSession, RunSpec
from repro.core import DogmatixConfig, ObjectFilter, RDistantDescendants, Source
from repro.core.index import IndexPartial
from repro.datagen import (
    cd_to_element,
    generate_cds,
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.engine import ExecutionPolicy
from repro.eval import build_dataset1
from repro.ingest import IndexStore
from repro.serve import ReadWriteLock
from repro.xmlkit import Document, Element, parse, serialize


def paper_session(**config_overrides) -> DetectionSession:
    fields = dict(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,
        theta_cand=0.55,
    )
    fields.update(config_overrides)
    config = DogmatixConfig(**fields)
    return DetectionSession(
        Source(paper_example_document(), paper_example_schema()),
        paper_example_mapping(),
        "MOVIE",
        config,
    )


@pytest.fixture()
def greedy_switching():
    """Force aggressive GIL hand-offs so races surface reliably."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestForeignSentinelAllocation:
    def test_ids_unique_across_threads(self, greedy_switching):
        """Regression: two concurrent match() calls on foreign elements
        could draw the same sentinel id (the allocator was a
        read-modify-write of ``self._last_foreign_id``), silently
        applying one element's filter verdict to the other wherever a
        per-id memo outlives a lookup."""
        session = paper_session()
        threads, per_thread = 8, 400
        drawn: list[list[int]] = [[] for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def allocate(slot: int) -> None:
            barrier.wait()
            bucket = drawn[slot]
            for _ in range(per_thread):
                bucket.append(session._foreign_object_id())

        workers = [
            threading.Thread(target=allocate, args=(slot,))
            for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        ids = [sentinel for bucket in drawn for sentinel in bucket]
        assert len(set(ids)) == threads * per_thread
        corpus_ids = {od.object_id for od in session.ods}
        assert not corpus_ids.intersection(ids)

    def test_foreign_elements_never_share_an_id(self, greedy_switching):
        """Public-path variant: concurrent lookups on distinct foreign
        elements must resolve to distinct sentinel ids (visible through
        ``explain()``, which reports the resolved ids)."""
        session = paper_session()
        threads = 8
        documents = [
            parse(
                "<moviedoc><movie><title>Troy</title><year>2004</year>"
                "</movie></moviedoc>"
            )
            for _ in range(threads)
        ]
        resolved: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def lookup(slot: int) -> None:
            barrier.wait()
            for _ in range(50):
                explanation = session.explain(documents[slot].root.children[0], 0)
                with lock:
                    resolved.append(explanation.left)

        workers = [
            threading.Thread(target=lookup, args=(slot,))
            for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(set(resolved)) == threads * 50

    def test_ids_stay_below_extended_corpus(self):
        session = paper_session()
        first = session._foreign_object_id()
        session.extend(
            parse(
                "<moviedoc><movie><title>Heat</title><year>1995</year>"
                "</movie></moviedoc>"
            )
        )
        second = session._foreign_object_id()
        corpus_ids = {od.object_id for od in session.ods}
        assert second < first < min(corpus_ids)


class TestKeptSetMemo:
    def test_non_default_theta_filter_pass_runs_once(self, monkeypatch):
        """Regression: ``match(theta_cand=...)`` off the default
        threshold re-ran the full O(n) object-filter pass per call — a
        server hot-path trap."""
        import repro.api.session as session_module

        session = paper_session(use_object_filter=True, theta_cand=0.3)
        constructed = []
        real_filter = session_module.ObjectFilter

        class CountingFilter(real_filter):
            def __init__(self, *args, **kwargs):
                constructed.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "ObjectFilter", CountingFilter)
        session.match(0, theta_cand=0.25)
        assert len(constructed) == 1
        session.match(0, theta_cand=0.25)
        session.match(1, theta_cand=0.25)
        assert len(constructed) == 1  # memoized: no second O(n) pass
        session.match(0, theta_cand=0.35)
        assert len(constructed) == 2  # a new theta is a new pass

    def test_memo_parity_with_unmemoized_pass(self):
        session = paper_session(use_object_filter=True, theta_cand=0.3)
        for theta in (0.25, 0.3, 0.35, 0.25):
            memoized = session._kept_for(theta)
            fresh_filter = ObjectFilter(session.index, theta)
            fresh = frozenset(
                od.object_id
                for od in session.ods
                if fresh_filter.keep(od)
            )
            assert memoized == fresh, f"kept-set memo diverged at {theta}"

    def test_memo_is_bounded(self):
        import repro.api.session as session_module

        session = paper_session(use_object_filter=True, theta_cand=0.3)
        for step in range(3 * session_module._KEPT_CACHE_SIZE):
            session._kept_for(0.2 + step / 1000)
        assert len(session._kept_cache) <= session_module._KEPT_CACHE_SIZE

    def test_extend_invalidates_the_memo(self):
        session = paper_session(use_object_filter=True, theta_cand=0.3)
        session.match(0, theta_cand=0.25)
        assert session._kept_cache
        session.extend(
            parse(
                "<moviedoc><movie><title>Heat</title><year>1995</year>"
                "</movie></moviedoc>"
            )
        )
        assert not session._kept_cache


class TestObjectFilterDecideRace:
    def test_concurrent_decide_records_one_decision_per_object(
        self, greedy_switching
    ):
        """Regression: ``decide()`` published its memo with a
        check-then-act (``_memo.get`` ... ``_memo[id] = decision`` +
        ``decisions.append``), so two threads evaluating the same
        object concurrently both recorded a decision — ``decisions``
        grew beyond one entry per object and ``pruned_count`` counted
        pruned objects twice.  Publication must pick one winner
        (``dict.setdefault``) and append only the winning entry."""
        session = paper_session()
        ods = list(session.ods)
        serial = ObjectFilter(session.index, 0.55)
        expected_ids = [od.object_id for od in ods]
        expected_pruned = sum(1 for od in ods if not serial.decide(od).kept)

        threads, rounds = 8, 40
        filters = [ObjectFilter(session.index, 0.55) for _ in range(rounds)]
        barrier = threading.Barrier(threads)
        observed: list[list] = [[] for _ in range(threads)]

        def decide_all(slot: int) -> None:
            bucket = observed[slot]
            for object_filter in filters:
                barrier.wait()
                for od in ods:
                    bucket.append((id(object_filter), od.object_id,
                                   object_filter.decide(od)))

        workers = [
            threading.Thread(target=decide_all, args=(slot,))
            for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        for object_filter in filters:
            recorded = [d.object_id for d in object_filter.decisions]
            assert sorted(recorded) == sorted(expected_ids), (
                "decisions must hold exactly one entry per evaluated "
                f"object, got {len(recorded)} entries for "
                f"{len(expected_ids)} objects"
            )
            assert object_filter.pruned_count == expected_pruned

        # Racing callers must all have observed the memoized winner.
        winners = {
            (key, object_id): decision
            for object_filter in filters
            for (key, object_id, decision) in [
                (id(object_filter), d.object_id, d)
                for d in object_filter.decisions
            ]
        }
        for bucket in observed:
            for key, object_id, decision in bucket:
                assert decision is winners[(key, object_id)]


class TestFrozenIndex:
    def test_session_index_rejects_structural_mutation(self):
        session = paper_session()
        assert session.index.frozen
        delta = IndexPartial(total_objects=1)
        with pytest.raises(RuntimeError, match="frozen"):
            session.index.merge_partial(delta)

    def test_extend_thaws_merges_and_refreezes(self):
        session = paper_session()
        update = session.extend(
            parse(
                "<moviedoc><movie><title>The Matrix</title>"
                "<year>1999</year></movie></moviedoc>"
            )
        )
        assert update.added
        assert session.index.frozen
        # The merge landed: the new object is indexed and reachable.
        assert session.index.total_objects == 4
        assert update.added[0].object_id in {
            m.object_id for m in session.match(0, theta_cand=0.1)
        }


def _extension_source() -> Document:
    """Five fresh CDs as a Dataset-1-shaped document."""
    root = Element("freedb")
    for record in generate_cds(5, seed=991):
        root.append(cd_to_element(record))
    return Document(root)


def _snapshot(matches) -> tuple:
    return tuple((m.object_id, m.similarity, m.path) for m in matches)


class TestGroupingFilledByReaders:
    def test_eight_readers_on_a_session_that_never_scored_a_pair(
        self, greedy_switching
    ):
        """Step 5 keeps each OD's grouping by kind on the OD, filled by
        whichever reader gets there first: every thread computes the
        same read-only value and publishes it by one assignment, so
        racing readers on a cold session answer like one thread."""
        dataset = build_dataset1(30, seed=7)

        def build() -> DetectionSession:
            return DetectionSession(
                Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
            )

        serial = build()
        targets = [od.object_id for od in serial.ods]
        expected = [_snapshot(serial.match(target)) for target in targets]
        assert any(expected)

        session = build()
        assert all(od._kinds is None for od in session.ods)
        _threads_answer_alike(session, targets, expected)
        assert any(od._kinds is not None for od in session.ods)


def _threads_answer_alike(session, targets, expected) -> None:
    """Eight readers released together; each must read ``expected``."""
    results: list = [None] * 8
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def reader(slot: int) -> None:
        try:
            start.wait(timeout=60)
            results[slot] = [_snapshot(session.match(target)) for target in targets]
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert all(result == expected for result in results)


@pytest.fixture()
def import_statements(monkeypatch):
    """Every import the program executes while the fixture is live:
    ``import`` statements in ``repro`` code (the caller's frame stands at
    an ``IMPORT_NAME`` — pickling a class by reference also calls
    ``__import__``, from a ``CALL``, and is not one) and module loads by
    ``repro._lazy``."""
    seen: list[tuple[str, str]] = []
    real_import = builtins.__import__
    real_import_module = lazy_module.import_module
    import_name = opcode.opmap["IMPORT_NAME"]

    def counting_import(name, globals=None, locals=None, fromlist=(), level=0):
        caller = sys._getframe(1)
        module = caller.f_globals.get("__name__", "")
        if (
            module.startswith("repro")
            and caller.f_code.co_code[caller.f_lasti] == import_name
        ):
            seen.append((module, name))
        return real_import(name, globals, locals, fromlist, level)

    def counting_import_module(name, package=None):
        seen.append(("repro._lazy", name))
        return real_import_module(name, package)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    monkeypatch.setattr(lazy_module, "import_module", counting_import_module)
    return seen


class TestImportOnUse:
    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        """Dataset 1 as files, its spec, and a store holding its snapshot."""
        base = tmp_path_factory.mktemp("stored")
        dataset = build_dataset1(30, seed=7)
        (base / "cds.xml").write_text(
            serialize(dataset.sources[0].document), encoding="utf-8"
        )
        (base / "mapping.xml").write_text(dataset.mapping.to_xml(), encoding="utf-8")
        RunSpec(
            documents=["cds.xml"],
            mapping="mapping.xml",
            real_world_type=dataset.real_world_type,
        ).save(str(base / "run.json"))
        spec = RunSpec.load(str(base / "run.json"))
        store = IndexStore(base / "store")
        store.save(spec, spec.build_session())
        return spec, store

    def test_the_counter_sees_a_use_site_import(self, stored, import_statements):
        spec, _ = stored
        spec.build_session()  # imports DetectionSession in its body
        assert ("repro.api.spec", "session") in import_statements

    def test_eight_readers_on_a_freshly_loaded_session(
        self, stored, greedy_switching
    ):
        spec, store = stored
        serial = store.load(spec)
        targets = [od.object_id for od in serial.ods]
        expected = [_snapshot(serial.match(target)) for target in targets]
        assert any(expected)
        _threads_answer_alike(store.load(spec), targets, expected)

    def test_a_repeated_read_executes_no_import(self, stored, import_statements):
        spec, store = stored
        session = store.load(spec)
        # the corpus re-parsed: an equal record the session does not hold
        foreign = parse(serialize(session.corpus.sources[0].document)).root.children[3]
        first = session.match(3), session.match(foreign)
        ods = session.ods
        session.similarity(ods[0], ods[1])
        del import_statements[:]
        again = session.match(3), session.match(foreign)
        for left in range(25):
            for right in range(40):
                session.similarity(ods[left % len(ods)], ods[right % len(ods)])
        assert import_statements == []
        assert [_snapshot(m) for m in again] == [_snapshot(m) for m in first]

    @pytest.mark.parametrize(
        "workers, batch_size",
        [(1, 256), (1, 1), (2, 256), (3, 7)],
        ids=["serial", "serial-batch1", "process", "process-3"],
    )
    def test_a_second_detect_executes_no_import(
        self, stored, import_statements, workers, batch_size, monkeypatch
    ):
        from repro.engine import executor

        monkeypatch.setattr(executor, "BATCH_SIZE", batch_size)
        policy = ExecutionPolicy(workers=workers)
        spec, store = stored
        session = store.load(spec)
        first = session.detect(policy=policy)
        del import_statements[:]
        second = session.detect(policy=policy)
        assert import_statements == []
        assert second.duplicate_id_pairs() == first.duplicate_id_pairs()
        assert second.clusters == first.clusters and first.clusters

    def test_a_warm_extend_executes_no_import(self, stored, import_statements):
        spec, store = stored
        session = store.load(spec)
        records = generate_cds(4, seed=991)

        def source(pair) -> Document:
            root = Element("freedb")
            for record in pair:
                root.append(cd_to_element(record))
            return Document(root)

        session.extend(source(records[:2]))
        del import_statements[:]
        update = session.extend(source(records[2:]))
        assert import_statements == []
        assert len(update.added) == 2


@pytest.mark.slow
class TestMatchStress:
    def test_concurrent_match_with_extend_is_bit_identical(self):
        """8 threads hammer match() (ids + foreign elements) on one
        warm session while extend() runs behind the writer lock; every
        observed response must equal the serial answer of either the
        pre- or the post-extension corpus, and the final state must be
        bit-identical to a serially extended twin."""
        dataset = build_dataset1(40, seed=7)
        config = DogmatixConfig()

        def build() -> DetectionSession:
            return DetectionSession(
                Corpus(dataset.sources),
                dataset.mapping,
                dataset.real_world_type,
                config,
            )

        session = build()
        extension = _extension_source()
        # Foreign query elements: a fresh parse of the first source —
        # same path shape as the corpus (so the mapping accepts them),
        # but new Element objects, so they resolve as foreign.
        copy = parse(serialize(dataset.sources[0].document))
        foreign_targets = {
            f"foreign-{i}": copy.root.children[i] for i in (0, 3)
        }
        id_targets = {
            f"id-{od.object_id}": od.object_id
            for od in list(session.ods)[:: max(1, len(session.ods) // 16)]
        }
        targets = {**id_targets, **foreign_targets}

        # Serial references: the session before, and a twin extended
        # the same way (serially), after.
        before = {
            key: _snapshot(session.match(target))
            for key, target in targets.items()
        }
        twin = build()
        twin.extend(Source(_extension_source()))
        after = {
            key: _snapshot(twin.match(target))
            for key, target in targets.items()
        }
        assert before != after, "extension must change some answer"

        lock = ReadWriteLock()
        failures: list[str] = []
        errors: list[str] = []
        start = threading.Barrier(9)
        rounds = 12

        def reader(offset: int) -> None:
            keys = list(targets)
            start.wait()
            for i in range(rounds * len(keys)):
                key = keys[(offset + i) % len(keys)]
                try:
                    with lock.read_locked():
                        got = _snapshot(session.match(targets[key]))
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    return
                if got != before[key] and got != after[key]:
                    failures.append(key)

        def writer() -> None:
            start.wait()
            with lock.write_locked():
                session.extend(Source(extension))

        threads = [
            threading.Thread(target=reader, args=(n,)) for n in range(8)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, f"match() raised under concurrency: {errors[:3]}"
        assert not failures, (
            f"{len(failures)} response(s) matched neither the pre- nor "
            f"post-extension serial answer, e.g. {sorted(set(failures))[:5]}"
        )
        # Final state: bit-identical to the serially extended twin.
        for key, target in targets.items():
            assert _snapshot(session.match(target)) == after[key], (
                f"post-stress state diverged from the serial twin at {key}"
            )
