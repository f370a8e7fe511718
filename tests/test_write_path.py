"""The write path's oracle: a write costs what it changes.

``extend()`` rests on two arguments, each held here to an oracle that
does not make it:

* **selective memo invalidation** — ``CorpusIndex.merge_partial`` keeps
  every memoized similar-value group the delta did not touch.  After
  every merge each surviving entry must equal a fresh ``search`` on the
  live index, the index must be observably a serial build's, and the
  verdicts step 5 reads from the groups (``similar_verdict``) must be
  the edit distance's;
* **the blocked incremental stream** — ``extend()`` scores a new object
  only against the clusters its values reach.  A twin session whose
  candidate hook is removed compares against every representative and
  must reach the same clusters, and an extended session must answer
  like one rebuilt over the grown corpus.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.framework.incremental as incremental_module
from repro.api import Corpus, DetectionSession
from repro.core import CorpusIndex, DogmatixConfig, IndexPartial, Source
from repro.core.index import _FOREIGN_CACHE_SIZE
from repro.datagen import cd_schema
from repro.eval import build_dataset1
from repro.framework import IncrementalDeduplicator, TypeMapping, od_from_pairs
from repro.strings import ned_cached
from repro.xmlkit import Document, Element, parse, serialize

from test_ingest_merge import THETA_TUPLE, observable_state
from test_backend_equivalence import SEEDS, random_corpus


def session_on(dataset, sources) -> DetectionSession:
    return DetectionSession(
        Corpus(sources), dataset.mapping, dataset.real_world_type
    )


# ----------------------------------------------------------------------
# Index level: the memos
# ----------------------------------------------------------------------
def frozen_index(ods, mapping, theta_tuple) -> CorpusIndex:
    index = CorpusIndex(ods, mapping, theta_tuple)
    index.freeze()
    return index


def grow(index: CorpusIndex, delta, mapping) -> None:
    """What ``extend()`` does to the index."""
    index.thaw()
    try:
        index.merge_partial(
            IndexPartial.from_ods(delta, mapping, q=index.q)
        )
    finally:
        index.freeze()


def fresh_search(index: CorpusIndex, key: str, query: str) -> tuple[str, ...]:
    value_index = index._state.value_indexes.get(key)
    if value_index is None:
        return ()
    return tuple(value_index.search(query, index.theta_tuple))


def memo_entries(index: CorpusIndex) -> dict:
    return {**index._similar_cache, **index._foreign_cache}


def assert_memo_coherent(index: CorpusIndex) -> None:
    terms = set(index.block_terms())
    assert set(index._similar_cache) <= terms
    assert not terms.intersection(index._foreign_cache)
    for (key, query), group in memo_entries(index).items():
        assert group == fresh_search(index, key, query), (key, query)


def assert_verdicts_exact(index: CorpusIndex, rng: random.Random) -> None:
    """``similar_verdict`` is ``ned < θ`` wherever the index holds one
    of the two values, and abstains where it holds neither."""
    theta = index.theta_tuple
    by_key: dict[str, list[str]] = {}
    for key, value in index.block_terms():
        by_key.setdefault(key, []).append(value)
    for key, values in by_key.items():
        held = rng.sample(values, min(len(values), 10))
        # one edit from a held value, and far from all of them
        foreign = [value[:-1] + "~" for value in held[:4]] + ["~" * 12]
        for a in held:
            for b in held:
                assert index.similar_verdict(key, a, b) == (
                    ned_cached(a, b) < theta
                ), (key, a, b)
            for b in foreign:
                exact = ned_cached(a, b) < theta
                assert index.similar_verdict(key, a, b) == exact, (key, a, b)
                assert index.similar_verdict(key, b, a) == exact, (key, b, a)
        for a in foreign:
            for b in foreign:
                want = None if a != b else theta > 0
                assert index.similar_verdict(key, a, b) is want, (key, a, b)
    assert index.similar_verdict("no/such/key", "left", "right") is None


def deltas_for(ods, rng: random.Random):
    """``(label, ods)`` deltas over the held-back half of a corpus, in
    a random order: new values, repeated values, a new comparison key
    and an empty delta among them."""
    held = list(ods[len(ods) // 2 :])
    next_id = max(od.object_id for od in ods) + 1
    deltas = []
    while held:
        size = rng.randint(1, 4)
        deltas.append(("new values", held[:size]))
        held = held[size:]
    described = [od for od in ods[: len(ods) // 2] if od.tuples]
    repeated = [
        od_from_pairs(next_id + i, [(t.value, t.name) for t in od.tuples])
        for i, od in enumerate(rng.sample(described, 2))
    ]
    deltas.append(("repeated values", repeated))
    root = described[0].tuples[0].name.rsplit("/", 1)[0]
    deltas.append(
        (
            "new comparison key",
            [od_from_pairs(next_id + 2, [("fresh label", f"{root}/label[1]")])],
        )
    )
    deltas.append(("empty", []))
    rng.shuffle(deltas)
    return deltas


def check_memo_through_merges(ods, mapping, theta_tuple, seed) -> None:
    rng = random.Random(seed)
    indexed = list(ods[: len(ods) // 2])
    live = frozen_index(indexed, mapping, theta_tuple)
    assert_verdicts_exact(live, rng)
    survivors = 0
    for label, delta in deltas_for(ods, rng):
        # Warm every term, plus foreign queries: under a key the index
        # does not hold, far from everything, one edit from an indexed
        # value, and every value this delta is about to index.
        for term in live.block_terms():
            live.similar_values(*term)
        key, value = rng.choice(live.block_terms())
        live.similar_values("no/such/key", value)
        live.similar_values(key, "~" * 12)
        live.similar_values(key, value[:-1] + "~")
        for od in delta:
            for odt in od.tuples:
                live.similar_values(live.key_of(odt.name), odt.value)
        standing = dict(live._similar_cache)

        grow(live, delta, mapping)
        indexed.extend(delta)

        assert not live._foreign_cache, label
        assert_memo_coherent(live)
        if label in ("empty", "repeated values"):  # no value was added
            assert live._similar_cache == standing, label
        survivors += len(live._similar_cache)
        for od in delta:  # found now, however it was cached before
            for odt in od.tuples:
                key = live.key_of(odt.name)
                assert odt.value in live.similar_values(key, odt.value)
        serial = CorpusIndex(indexed, mapping, theta_tuple)
        assert observable_state(live) == observable_state(serial), label
        assert_verdicts_exact(live, rng)
    assert survivors, "no memo entry ever survived a merge"


class TestMemoCoherence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", ("dupes", "uniform", "skewed", "empty"))
    def test_random_corpora(self, seed, shape):
        ods = random_corpus(seed, shape)
        check_memo_through_merges(ods, TypeMapping(), THETA_TUPLE, seed)

    @pytest.mark.parametrize("seed", (7, 11))
    def test_dataset1(self, seed):
        dataset = build_dataset1(14, seed=seed)
        session = session_on(dataset, dataset.sources)
        ods = list(session.ods)
        random.Random(seed).shuffle(ods)
        check_memo_through_merges(
            ods, dataset.mapping, session.config.theta_tuple, seed
        )

    def test_theta_zero_groups_are_the_value_itself(self):
        ods = random_corpus(SEEDS[0], "dupes")
        check_memo_through_merges(ods, TypeMapping(), 0.0, 0)


class TestMemoBounds:
    def test_foreign_queries_leave_both_memos_bounded(self):
        """A daemon is posted as many distinct values as its clients
        care to: neither memo may keep one entry per value."""
        ods = random_corpus(SEEDS[0], "dupes")
        index = frozen_index(ods, TypeMapping(), THETA_TUPLE)
        terms = index.block_terms()
        for term in terms:
            index.similar_values(*term)
        rng = random.Random(5)
        pair_memo = len(index._pair_idf_cache)
        largest = 0
        for i in range(10_000):
            key, value = terms[i % len(terms)]
            cut = rng.randrange(len(value))
            foreign = f"{value[:cut]}{i}{value[cut + 1:]}"
            assert (key, foreign) not in terms
            group = index.similar_values(key, foreign)
            assert group == fresh_search(index, key, foreign)
            assert index.similar_values(key, foreign) is group  # memoized
            idf = index.pair_idf(key, foreign, key, value)
            holders = len(index.occurrences(key, value))
            assert idf == math.log(index.total_objects / holders)
            largest = max(largest, len(index._foreign_cache))
        assert largest == _FOREIGN_CACHE_SIZE  # filled, then dropped whole
        assert len(index._foreign_cache) <= _FOREIGN_CACHE_SIZE
        assert set(index._similar_cache) == set(terms)
        assert len(index._pair_idf_cache) == pair_memo
        # Between corpus terms the pair memo still memoizes.
        (key_i, value_i), (key_j, value_j) = terms[0], terms[1]
        index.pair_idf(key_i, value_i, key_j, value_j)
        assert len(index._pair_idf_cache) == pair_memo + 1


# ----------------------------------------------------------------------
# Session level: the incremental stream
# ----------------------------------------------------------------------
def dataset1_stream(base_count: int, seed: int, batches: int, batch_size: int):
    """Dataset 1 shuffled and cut into a corpus source and extension
    sources, so a batch holds new objects and duplicates of old ones."""
    dataset = build_dataset1(base_count, seed=seed)
    records = list(dataset.sources[0].document.root.children)
    random.Random(seed).shuffle(records)

    def source(chunk) -> Source:
        root = Element("freedb")
        for record in chunk:
            root.append(record.copy())
        return Source(Document(root), cd_schema())

    cut = len(records) - batches * batch_size
    extensions = [
        source(records[start : start + batch_size])
        for start in range(cut, len(records), batch_size)
    ]
    return dataset, source(records[:cut]), extensions


def snapshot(matches) -> list:
    return [(m.object_id, m.similarity, m.path) for m in matches]


def foreign_element(source: Source, position: int) -> Element:
    """A corpus record re-parsed (so it resolves as foreign) with one
    value no corpus holds."""
    copy = parse(serialize(source.document)).root.children[position]
    did = copy.find("did")
    did.replace_content([did.text + "-x"])
    return copy


class TestTwinStreams:
    @pytest.mark.parametrize("check_members_on_miss", (False, True))
    @pytest.mark.parametrize("policy", ("merged", "richest"))
    def test_blocked_stream_equals_unblocked(
        self, monkeypatch, policy, check_members_on_miss
    ):
        dataset, corpus, extensions = dataset1_stream(16, 7, 5, 2)

        def blocked(*args, **options):
            return IncrementalDeduplicator(
                *args, representative_policy=policy, **options
            )

        def unblocked(*args, candidates, **options):  # always passed
            return blocked(*args, **options)

        def twin(factory):
            """A session and its first, seeding extension."""
            session = session_on(dataset, [corpus])
            with monkeypatch.context() as patch:
                # extend() imports the stream from its defining module
                patch.setattr(incremental_module, "IncrementalDeduplicator", factory)
                first = session.extend(
                    extensions[0], check_members_on_miss=check_members_on_miss
                )
            return session, first

        def assert_streams_equal(update, expected):
            assert update.assignments == expected.assignments
            assert update.duplicate_clusters == expected.duplicate_clusters
            ours, theirs = shipped.incremental, oracle.incremental
            assert ours.clusters == theirs.clusters
            for cluster in range(len(theirs.clusters)):
                assert (
                    ours.representative_of(cluster).tuples
                    == theirs.representative_of(cluster).tuples
                )
            assert ours.comparisons <= theirs.comparisons

        (shipped, update), (oracle, expected) = twin(blocked), twin(unblocked)
        assert shipped.incremental.candidates is not None
        assert oracle.incremental.candidates is None
        assert shipped.incremental.policy == oracle.incremental.policy == policy
        assert_streams_equal(update, expected)
        for extension in extensions[1:]:
            assert_streams_equal(
                shipped.extend(extension), oracle.extend(extension)
            )
        assert any(len(cluster) > 1 for cluster in oracle.incremental.clusters)
        assert (
            shipped.incremental.comparisons < oracle.incremental.comparisons / 4
        )

    def test_hook_may_return_a_superset_and_unknown_ids(self):
        """The hook's contract: every added object with similarity > 0,
        and anything else besides."""
        dataset, corpus, _ = dataset1_stream(12, 7, 1, 2)
        session = session_on(dataset, [corpus])
        streams = [
            IncrementalDeduplicator(
                session.similarity, session.config.theta_cand, candidates=hook
            )
            for hook in (
                None,
                session._similar_object_ids,
                lambda od: range(-5, len(session.ods) + 5),
            )
        ]
        for stream in streams:
            stream.add_all(list(session.ods))
        assert streams[1].clusters == streams[0].clusters == streams[2].clusters
        assert streams[1].comparisons < streams[0].comparisons
        assert streams[2].comparisons == streams[0].comparisons


class TestExtendedEqualsRebuilt:
    @pytest.mark.parametrize("seed", (7, 11))
    def test_match_and_detect_after_every_extension(self, seed):
        dataset, corpus, extensions = dataset1_stream(12, seed, 4, 2)
        session = session_on(dataset, [corpus])
        session.match(0)  # a warm memo is what the writes must keep exact
        sources = [corpus]
        for step, extension in enumerate(extensions):
            session.match(foreign_element(corpus, step))
            update = session.extend(extension)
            sources.append(extension)
            rebuilt = session_on(dataset, sources)
            assert [od.object_id for od in update.added] == [
                od.object_id for od in rebuilt.ods[-len(update.added) :]
            ]
            for od in rebuilt.ods:
                assert snapshot(session.match(od.object_id)) == snapshot(
                    rebuilt.match(od.object_id)
                ), (step, od.object_id)
            foreign = foreign_element(corpus, step)
            assert snapshot(session.match(foreign)) == snapshot(
                rebuilt.match(foreign)
            )
            assert session.detect().identical_to(rebuilt.detect())
            assert_memo_coherent(session.index)

    def test_running_example_grown_by_one_movie(self):
        """The delta ``IndexPartial`` of ``extend()`` folds into the
        answers of a session built over both documents, on the paper's
        running example with its thresholds."""
        from repro.core import RDistantDescendants
        from repro.datagen import (
            paper_example_document,
            paper_example_mapping,
            paper_example_schema,
        )

        def example_session(*sources) -> DetectionSession:
            return DetectionSession(
                [Source(paper_example_document(), paper_example_schema()),
                 *sources],
                paper_example_mapping(),
                "MOVIE",
                DogmatixConfig(
                    heuristic=RDistantDescendants(2),
                    theta_tuple=0.55,
                    theta_cand=0.55,
                ),
            )

        extension = Source(
            parse(
                "<moviedoc><movie><title>Troy 2</title><year>2004</year>"
                "</movie></moviedoc>"
            ),
            paper_example_schema(),
        )
        session = example_session()
        session.extend(extension)
        rebuilt = example_session(extension)
        assert session.detect().identical_to(rebuilt.detect())
        for od in rebuilt.ods:
            assert snapshot(session.match(od.object_id)) == snapshot(
                rebuilt.match(od.object_id)
            ), od.object_id
        assert_memo_coherent(session.index)


class TestWriteCostsWhatItChanges:
    @staticmethod
    def probes(session: DetectionSession) -> int:
        return sum(
            value_index.probes
            for value_index in session.index._state.value_indexes.values()
        )

    def write_probes(self, base_count: int) -> tuple[int, int]:
        """Similar-value searches spent by one ``extend()`` and the
        ``match()`` after it on a warm session, and the delta's
        distinct terms."""
        # the same two records extend corpora of different sizes
        _, _, (extension,) = dataset1_stream(10, 7, 1, 2)
        dataset = build_dataset1(base_count, seed=3)
        session = session_on(dataset, dataset.sources)
        session.match(0)
        before = self.probes(session)
        update = session.extend(extension)
        session.match(update.added[0].object_id)
        distinct = {
            (session.index.key_of(odt.name), odt.value)
            for od in update.added
            for odt in od.tuples
        }
        return self.probes(session) - before, len(distinct)

    def test_searches_follow_the_delta_not_the_corpus(self):
        small, distinct = self.write_probes(15)
        large, same = self.write_probes(45)
        assert distinct == same
        assert 0 < small <= 4 * distinct
        assert 0 < large <= 4 * distinct
