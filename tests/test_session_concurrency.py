"""Shared-state safety of the session read path.

``DetectionSession.match()`` is served concurrently (``repro.serve``),
so its read path must not mutate shared state in racy ways.  Pinned
here:

* foreign sentinel allocation is atomic — the old read-modify-write on
  an instance attribute let two threads draw the same id, conflating
  two foreign elements in per-id memos;
* the per-corpus-state maps: filter scores and θ-free partner lists —
  ``match(theta_cand=...)`` at a non-default threshold used to re-run
  the full O(n) object-filter pass on every call, and the first
  filtered lookup classified the whole corpus; now a lookup scores only
  the objects it reads, once per corpus state, and keeps one partner
  list per object that every later threshold at or above its floor is
  cut from — with at most one list per object, parity against the
  unmemoized filter, foreign elements never stored, eight readers on a
  never-read session answering like one, a reader that looks up an
  object another reader is still scoring answering like a serial
  session, and a reader that stores after a write storing into maps no
  later read sees;
* the standalone :class:`ObjectFilter`'s memo — eight threads calling
  ``keep`` under forced GIL switching agree with a serial filter;
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
* an adopted index — a load takes the snapshot's rows and buckets as
  the index's own, and eight readers on it answer like a cold build;
* a stored tree's first read — eight threads reading elements and the
  root of a document no one has read share one decode, and each holds
  the node at its object's rank;
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
from repro.eval import build_dataset1, build_dataset3
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
    """The session's two per-object maps: each object's f, and its
    partner list, which ``match()`` computes at the lowest floor asked
    for and cuts every higher threshold from."""

    @pytest.fixture()
    def scored(self, monkeypatch):
        """The object ids the session's ``filter_score`` is called for,
        in call order."""
        import repro.api.session as session_module

        scored: list[int] = []
        real_score = session_module.filter_score

        def counting_score(index, od):
            scored.append(od.object_id)
            return real_score(index, od)

        monkeypatch.setattr(session_module, "filter_score", counting_score)
        return scored

    def test_a_first_read_classifies_only_what_it_reads(self, scored):
        """Regression: ``match(theta_cand=...)`` off the default
        threshold re-ran the full O(n) object-filter pass per call — a
        server hot-path trap — and later the first filtered lookup
        built the tuple classes of the whole corpus.  A first lookup
        scores the queried object and its candidates, each once, and a
        new threshold is a comparison with the stored scores: no score
        again."""
        dataset = build_dataset1(15, seed=3)
        session = DetectionSession(
            Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
        )
        n = len(session.ods)
        od = session.ods[0]
        touched = {0} | session._similar_object_ids(od)

        session.match(0, theta_cand=0.25)
        assert 0 in scored and len(touched) > 1
        assert len(scored) == len(set(scored))  # each once
        assert set(scored) <= touched and len(scored) < n
        first = list(scored)
        session.match(0, theta_cand=0.25)
        assert scored == first  # cut from the list
        session.match(1, theta_cand=0.25)
        assert len(scored) == len(set(scored))  # none twice
        at_new_theta = list(scored)
        session.match(0, theta_cand=0.35)
        assert scored == at_new_theta  # f does not depend on the threshold

    def test_f_is_computed_once_per_object_per_corpus_state(self, scored):
        """A sweep of three ``detect()`` runs scores each object's f
        once, not once per threshold; a write scores nobody, and the
        lookup after it scores the objects it reads only."""
        dataset = build_dataset1(15, seed=3)
        session = DetectionSession(
            Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
        )
        ids = sorted(od.object_id for od in session.ods)
        pruned = {
            tuple(session.detect(theta_cand=theta).pruned_object_ids)
            for theta in (0.3, 0.5, 0.7)
        }
        assert sorted(scored) == ids
        assert len(pruned) > 1  # the thresholds decide apart on one f

        update = session.extend(_extension_source())
        assert len(scored) == len(ids)  # the write scores nobody
        del scored[:]
        target = update.added[0]
        touched = {target.object_id} | session._similar_object_ids(target)
        session.match(target.object_id)
        assert target.object_id in scored
        assert len(scored) == len(set(scored)) and set(scored) <= touched

    def test_a_reader_of_an_object_another_reader_is_scoring(self, monkeypatch):
        """Reader A stalls inside the first ``filter_score`` of an object
        no read has touched; reader B then looks the same object up.
        Whatever A has published by then, B's answer — and A's, once it
        resumes — is a serial session's to the bit: an entry is stored
        only once its f is final."""
        import repro.api.session as session_module

        dataset = build_dataset1(15, seed=3)

        def build() -> DetectionSession:
            return DetectionSession(
                Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
            )

        serial = build()
        object_id = next(
            od.object_id for od in serial.ods if serial.match(od.object_id)
        )
        expected = _exact(build().match(object_id))
        assert expected
        session = build()
        real_score = session_module.filter_score
        stalled, release = threading.Event(), threading.Event()

        def stalling(index, od):
            if threading.current_thread() is reader_a and od.object_id == object_id:
                stalled.set()
                assert release.wait(timeout=30)
            return real_score(index, od)

        monkeypatch.setattr(session_module, "filter_score", stalling)
        answers: list = []
        errors: list[Exception] = []

        def read() -> None:
            try:
                answers.append(_exact(session.match(object_id)))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        reader_a = threading.Thread(target=read)
        reader_a.start()
        try:
            assert stalled.wait(timeout=30)
            answer_b = _exact(session.match(object_id))  # reader B
        finally:
            release.set()
            reader_a.join(timeout=30)
        assert not reader_a.is_alive() and not errors
        assert answer_b == expected
        assert answers == [expected]
        assert _exact(session.match(object_id)) == expected

    def test_eight_readers_on_a_never_read_session(self, greedy_switching):
        """Eight readers released together on a session no read has
        touched, each looking up every id at two thresholds in its own
        order: the per-object scores are filled under them by whichever
        reader gets there first.  Every answer is a serial twin's to the
        bit, and every f the session holds is a fresh filter's."""
        dataset = build_dataset1(30, seed=7)

        def build() -> DetectionSession:
            return DetectionSession(
                Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
            )

        thetas = (None, 0.35)
        serial = build()
        ids = [od.object_id for od in serial.ods]
        expected = {
            (theta, object_id): _exact(serial.match(object_id, theta_cand=theta))
            for theta in thetas
            for object_id in ids
        }
        assert any(expected.values())
        session = build()
        assert session._memo == ({}, {})
        wrong: list = []
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def reader(slot: int) -> None:
            try:
                start.wait(timeout=60)
                order = ids[slot * 7 :] + ids[: slot * 7]
                for theta in thetas[slot % 2 :] + thetas[: slot % 2]:
                    for object_id in order:
                        got = _exact(session.match(object_id, theta_cand=theta))
                        if got != expected[theta, object_id]:
                            wrong.append((theta, object_id))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong
        scores, lists = session._memo
        assert set(scores) == set(lists) == set(ids)
        fresh = ObjectFilter(session.index, session.config.theta_cand)
        for od in session.ods:
            assert scores[od.object_id].hex() == fresh.score(od).hex()

    def test_memo_parity_with_unmemoized_pass(self):
        """Every object's decision at every theta, and its f to the bit,
        are a fresh :class:`ObjectFilter`'s."""
        session = paper_session(use_object_filter=True, theta_cand=0.3)
        for theta in (0.25, 0.3, 0.35, 0.25):
            for od in session.ods:
                session.match(od.object_id, theta_cand=theta)
            fresh_filter = ObjectFilter(session.index, theta)
            fresh = {od.object_id: fresh_filter.keep(od) for od in session.ods}
            kept = {
                od.object_id: session._kept(theta, od.object_id)
                for od in session.ods
            }
            assert kept == fresh, f"filter decisions diverged at {theta}"
            scores = session._memo[0]
            assert {
                object_id: score.hex() for object_id, score in scores.items()
            } == {
                od.object_id: fresh_filter.score(od).hex() for od in session.ods
            }

    def test_one_list_per_indexed_object(self):
        """Whatever thresholds are asked, rising, falling or repeated,
        with and without the band, a session holds at most one partner
        list per indexed object, at the lowest floor asked for it."""
        for use_object_filter in (True, False):
            session = paper_session(
                use_object_filter=use_object_filter,
                theta_cand=0.3,
                possible_threshold=0.15,
            )
            n = len(session.ods)
            lowest: dict[int, float] = {}
            for step in range(40):
                theta = 0.2 + (step * 7 % 40) / 100
                object_id = step % n
                banded = step % 5 == 0
                session.match(object_id, theta_cand=theta, include_possible=banded)
                floor = 0.15 if banded else theta
                lowest[object_id] = min(lowest.get(object_id, floor), floor)
                lists = session._memo[1]
                assert len(lists) <= n
                assert {i: held[0] for i, held in lists.items()} == lowest

    def test_readers_across_falling_floors_answer_like_one(
        self, greedy_switching
    ):
        """Eight readers on one filtered session, each walking twelve
        thresholds in its own order: lists are made, cut, and replaced
        by lists at lower floors under them, and every answer is the
        serial one."""
        dataset = build_dataset1(10, seed=7)

        def build() -> DetectionSession:
            return DetectionSession(
                Corpus(dataset.sources), dataset.mapping, dataset.real_world_type
            )

        thetas = [0.3 + step / 50 for step in range(12)]
        ids = [od.object_id for od in build().ods]
        serial = build()
        expected = {
            (theta, object_id): _snapshot(serial.match(object_id, theta_cand=theta))
            for theta in thetas
            for object_id in ids
        }
        assert any(expected.values())
        session = build()
        wrong: list = []
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def reader(slot: int) -> None:
            try:
                start.wait(timeout=60)
                for round_ in range(2):
                    for theta in thetas[slot:] + thetas[:slot]:
                        for object_id in ids[round_::2]:
                            got = session.match(object_id, theta_cand=theta)
                            if _snapshot(got) != expected[theta, object_id]:
                                wrong.append((theta, object_id))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not wrong
        assert set(session._memo[1]) == set(ids)

    def test_extend_invalidates_the_memo(self):
        session = paper_session(use_object_filter=True, theta_cand=0.3)
        session.match(0, theta_cand=0.25)
        memo = session._memo
        scores, lists = memo
        assert scores and lists[0][0] == 0.25
        session.extend(parse("<moviedoc/>"))  # no candidate: no answer moves
        assert session._memo is memo
        assert session._memo[1] == {0: lists[0]}
        session.extend(
            parse(
                "<moviedoc><movie><title>Heat</title><year>1995</year>"
                "</movie></moviedoc>"
            )
        )
        assert session._memo == ({}, {})

    def test_foreign_elements_are_scored_every_time(self, monkeypatch):
        """A posted element gets a new OD and a new id per call: its
        answer is never stored, and each lookup scores its partners."""
        session = paper_session(use_object_filter=False)
        copy = parse(serialize(paper_example_document()))
        first, second = copy.root.children[0], copy.root.children[1]
        real = session._similarity
        scored: list[int] = []

        def counting(left, right):
            scored.append(left.object_id)
            return real(left, right)

        monkeypatch.setattr(session, "_similarity", counting)
        answers = []
        for element in (first, second, first, second):
            before = len(scored)
            answers.append(_snapshot(session.match(element)))
            assert len(scored) > before
        assert answers[:2] == answers[2:] and answers[0] and answers[1]
        assert len(set(scored)) == 4  # four sentinel ids, none shared
        assert not session._memo[1]

    def test_a_reader_publishing_after_a_write_changes_no_later_answer(
        self, monkeypatch
    ):
        """A reader computes object 0's list at a floor below the one
        held, stalls while a write adds a duplicate, and then stores its
        list: into the map it fetched, which the write dropped.  The
        next lookups answer on the grown corpus."""
        session = paper_session(use_object_filter=False)
        session.match(0)
        twin = paper_session(use_object_filter=False)
        movie = (
            "<moviedoc><movie><title>The Matrix</title><year>1999</year>"
            "<actor><name>K. Reeves</name><role>Neo</role></actor>"
            "</movie></moviedoc>"
        )
        twin.extend(parse(movie))
        before = _snapshot(paper_session(use_object_filter=False).match(0, 0.3))
        after = _snapshot(twin.match(0, theta_cand=0.3))
        assert after != before

        computed, written = threading.Event(), threading.Event()
        real = session._partners

        def stalled(*args):
            answer = real(*args)
            computed.set()
            assert written.wait(timeout=30)
            return answer

        monkeypatch.setattr(session, "_partners", stalled)
        stale: list = []
        reader = threading.Thread(
            target=lambda: stale.append(_snapshot(session.match(0, theta_cand=0.3)))
        )
        reader.start()
        assert computed.wait(timeout=30)
        session.extend(parse(movie))
        written.set()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stale == [before]
        assert _snapshot(session.match(0, theta_cand=0.3)) == after
        assert _snapshot(session.match(0)) == _snapshot(twin.match(0))


    @pytest.mark.parametrize("stall_after", ["first", "last"])
    def test_a_reader_stalled_in_its_first_classification_across_a_write(
        self, monkeypatch, stall_after
    ):
        """A first filtered read scores the queried object and its
        candidates into the maps it fetched.  A reader stalled inside
        one of those scores (the first, or the last) while a write folds
        in an object leaves every later answer equal to a twin's that
        was never read, and every f the session then holds equal to a
        fresh score on the grown corpus."""
        import repro.api.session as session_module

        session = paper_session(use_object_filter=True, theta_cand=0.3)
        twin = paper_session(use_object_filter=True, theta_cand=0.3)
        probe = paper_session(use_object_filter=True, theta_cand=0.3)
        probe.match(0)
        stall_at = 1 if stall_after == "first" else len(probe._memo[0])
        real = session_module.filter_score
        scored: list[int] = []
        stalled, written = threading.Event(), threading.Event()

        def stalling(index, od):
            score = real(index, od)
            if threading.current_thread() is reader:
                scored.append(od.object_id)
                if len(scored) == stall_at:
                    stalled.set()
                    assert written.wait(timeout=30)
            return score

        monkeypatch.setattr(session_module, "filter_score", stalling)
        errors: list[Exception] = []

        def read() -> None:
            try:
                session.match(0)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        reader = threading.Thread(target=read)
        reader.start()
        assert stalled.wait(timeout=30)
        for target in (session, twin):
            target.extend(parse(_MATRIX_TWIN))
        written.set()
        reader.join(timeout=30)
        assert not reader.is_alive() and not errors
        monkeypatch.setattr(session_module, "filter_score", real)
        for document in ("<moviedoc/>", _HEAT):
            for object_id, score in session._memo[0].items():
                fresh = real(session.index, session._by_id[object_id])
                assert score.hex() == fresh.hex()
            for object_id in session._by_id:
                for theta in (None, 0.3, 0.8):
                    assert _snapshot(
                        session.match(object_id, theta_cand=theta)
                    ) == _snapshot(twin.match(object_id, theta_cand=theta))
            for target in (session, twin):
                target.extend(parse(document))

    def test_a_list_keeps_pairs_and_each_call_makes_new_matches(self):
        """A list is kept as ``(candidate id, similarity)`` pairs and
        each call builds its own matches.  Without a C2 band both
        ``include_possible`` flags give one answer from one list at θ;
        with one, the banded lookup lowers the list's floor to the
        band's, and the duplicates are cut from it."""
        session = paper_session(use_object_filter=False, theta_cand=0.3)
        first = session.match(0)
        again = session.match(0, include_possible=True)
        assert first and _snapshot(first) == _snapshot(again)
        assert all(left is not right for left, right in zip(first, again))
        assert session._memo[1] == {
            0: (0.3, tuple((m.object_id, m.similarity) for m in first))
        }
        banded = paper_session(
            use_object_filter=False, theta_cand=0.3, possible_threshold=0.1
        )
        duplicates = banded.match(0)
        band = banded.match(0, include_possible=True)
        floor, partners = banded._memo[1][0]
        assert floor == 0.1 and len(banded._memo[1]) == 1
        assert partners == tuple((m.object_id, m.similarity) for m in band)
        assert _snapshot(banded.match(0)) == _snapshot(duplicates)


class TestObjectFilterRace:
    def test_eight_threads_calling_keep_agree_with_a_serial_filter(
        self, greedy_switching
    ):
        """Eight threads released together onto each of 40 fresh
        :class:`ObjectFilter` memos, every one calling ``keep`` and
        ``score`` on every object under forced GIL switching: each
        answer is a serial filter's, f to the bit."""
        session = paper_session()
        ods = list(session.ods)
        serial = ObjectFilter(session.index, 0.55)
        expected = {
            od.object_id: (serial.keep(od), serial.score(od).hex()) for od in ods
        }
        assert len({kept for kept, _ in expected.values()}) == 2

        threads, rounds = 8, 40
        filters = [ObjectFilter(session.index, 0.55) for _ in range(rounds)]
        barrier = threading.Barrier(threads)
        wrong: list = []

        def keep_all(slot: int) -> None:
            order = ods[slot % len(ods) :] + ods[: slot % len(ods)]
            for object_filter in filters:
                barrier.wait()
                for od in order:
                    got = (object_filter.keep(od), object_filter.score(od).hex())
                    if got != expected[od.object_id]:
                        wrong.append((slot, od.object_id, got))

        workers = [
            threading.Thread(target=keep_all, args=(slot,))
            for slot in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert not wrong


class TestFirstDecodeRace:
    def test_eight_first_readers_of_a_stored_tree_share_one_decode(
        self, tmp_path, greedy_switching, decodes
    ):
        """Eight threads released together onto a freshly loaded
        session, each reading one object's element and the document's
        root (half in each order), over five fresh loads: one decode per
        load, and every thread holds the node at its object's rank in
        the one tree the document keeps."""
        dataset = build_dataset3(count=300, seed=11)
        (tmp_path / "corpus.xml").write_text(
            serialize(dataset.sources[0].document), encoding="utf-8"
        )
        (tmp_path / "mapping.xml").write_text(
            dataset.mapping.to_xml(), encoding="utf-8"
        )
        spec = RunSpec(
            documents=[str(tmp_path / "corpus.xml")],
            mapping=str(tmp_path / "mapping.xml"),
            real_world_type=dataset.real_world_type,
        )
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)
        order = {
            id(node): rank
            for rank, node in enumerate(cold.corpus.sources[0].document.iter())
        }
        ranks = [order[id(od.element)] for od in cold.ods]
        step = len(cold.ods) // 8
        for _ in range(5):
            warm = store.load(spec)
            document = warm.corpus.sources[0].document
            seen: list = [None] * 8
            errors: list[Exception] = []
            start = threading.Barrier(8)

            def reader(slot: int) -> None:
                od = warm.ods[slot * step]
                try:
                    start.wait(timeout=60)
                    if slot % 2:
                        seen[slot] = (od.element, document.root)
                    else:
                        root = document.root
                        seen[slot] = (od.element, root)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=reader, args=(slot,)) for slot in range(8)
            ]
            del decodes[:]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(decodes) == 1
            nodes = list(document.iter())
            for slot, (element, root) in enumerate(seen):
                od = warm.ods[slot * step]
                assert root is document.root
                assert element is od.element is nodes[ranks[slot * step]]
                assert element.absolute_path() == cold.ods[slot * step].path


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


def _exact(matches) -> tuple:
    """A ``match()`` answer with every similarity to the bit."""
    return tuple((m.object_id, m.similarity.hex(), m.path) for m in matches)


#: A duplicate of the running example's first movie, and a movie
#: without one: writes that add one object each.
_MATRIX_TWIN = (
    "<moviedoc><movie><title>The Matrix</title><year>1999</year>"
    "<actor><name>K. Reeves</name><role>Neo</role></actor>"
    "</movie></moviedoc>"
)
_HEAT = (
    "<moviedoc><movie><title>Heat</title><year>1995</year>"
    "</movie></moviedoc>"
)


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

    def test_eight_readers_on_an_adopted_index_answer_like_a_cold_build(
        self, stored, greedy_switching
    ):
        """A load adopts the snapshot's rows and buckets as the index's
        own (no rebuild); the lock-free ``match()`` reads them from
        eight threads at once and answers like a session built cold."""
        spec, store = stored
        cold = spec.build_session()
        targets = [od.object_id for od in cold.ods]
        expected = [_snapshot(cold.match(target)) for target in targets]
        assert any(expected)
        session = store.load(spec)
        assert session.index._similar_cache == {}  # nothing searched yet
        _threads_answer_alike(session, targets, expected)

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

    def test_a_second_detect_executes_no_import(self, stored, import_statements):
        spec, store = stored
        session = store.load(spec)
        first = session.detect()
        del import_statements[:]
        second = session.detect()
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
