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
  like one rebuilt over the grown corpus;
* **the filter scores** — a read scores f(OD_i) for the objects it
  reads, and ``extend()`` drops every score.  After every write each f
  the session holds must be a fresh :func:`filter_score`'s, and its
  filter decisions must be a fresh :class:`ObjectFilter` pass's, bit
  for bit;
* **the partner lists** — ``match()`` keeps one θ-free partner list per
  indexed object, at the lowest floor asked for, until a write adds
  objects, and cuts every threshold at or above that floor from it.
  Under any interleaving of lookups and writes every answer must be a
  rebuilt session's, a lookup at or above the held floor must score no
  pair, and a write with candidates must make the next lookup score
  again.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.object_filter as object_filter_module
import repro.framework.incremental as incremental_module
from repro.api import Corpus, DetectionSession
from repro.core import CorpusIndex, DogmatixConfig, IndexPartial, ObjectFilter, Source
from repro.core.index import _FOREIGN_CACHE_SIZE
from repro.core.object_filter import filter_score
from repro.eval import build_dataset1
from repro.framework import IncrementalDeduplicator, TypeMapping, od_from_pairs
from repro.strings import ned_cached
from repro.xmlkit import Element, parse, serialize

from test_ingest_merge import THETA_TUPLE, observable_state
from test_backend_equivalence import (
    SEEDS,
    class_fuzz_dataset,
    random_corpus,
    source_of,
)


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
    cut = len(records) - batches * batch_size
    extensions = [
        source_of(records[start : start + batch_size])
        for start in range(cut, len(records), batch_size)
    ]
    return dataset, source_of(records[:cut]), extensions


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
    def test_blocked_stream_equals_unblocked(self, monkeypatch):
        dataset, corpus, extensions = dataset1_stream(16, 7, 5, 2)

        def unblocked(*args, candidates, **options):  # always passed
            return IncrementalDeduplicator(*args, **options)

        def twin(factory):
            """A session and its first, seeding extension."""
            session = session_on(dataset, [corpus])
            with monkeypatch.context() as patch:
                # extend() imports the stream from its defining module
                patch.setattr(incremental_module, "IncrementalDeduplicator", factory)
                first = session.extend(extensions[0])
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

        (shipped, update), (oracle, expected) = (
            twin(IncrementalDeduplicator),
            twin(unblocked),
        )
        assert shipped.incremental.candidates is not None
        assert oracle.incremental.candidates is None
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

    @staticmethod
    def corpus_terms(session: DetectionSession) -> int:
        index = session.index
        return len(
            {
                (index.key_of(odt.name), odt.value)
                for od in session.ods
                for odt in od.tuples
            }
        )

    def write_costs(
        self, base_count: int, monkeypatch
    ) -> tuple[int, list[tuple[int, int]]]:
        """The corpus's distinct terms, and per write — two in a row on
        a session one lookup warmed — the similar-value searches spent by
        the ``extend()`` and the ``match()`` after it, and the delta's
        distinct terms.  The write classifies no tuple; a new object is
        classified by the lookup that reads it, once per tuple."""
        # the same records extend corpora of different sizes
        _, _, extensions = dataset1_stream(10, 7, 2, 2)
        dataset = build_dataset1(base_count, seed=3)
        session = session_on(dataset, dataset.sources)
        session.match(0)
        terms = self.corpus_terms(session)
        classified: list[int] = []
        real_class = object_filter_module.tuple_class

        def counting_class(index, key, value, object_id):
            classified.append(object_id)
            return real_class(index, key, value, object_id)

        costs = []
        for extension in extensions:
            before = self.probes(session)
            classified.clear()
            with monkeypatch.context() as patch:
                patch.setattr(object_filter_module, "tuple_class", counting_class)
                update = session.extend(extension)
                assert not classified  # a write classifies nothing
                read = update.added[0]
                session.match(read.object_id)
            assert classified.count(read.object_id) == len(read.tuples)
            distinct = {
                (session.index.key_of(odt.name), odt.value)
                for od in update.added
                for odt in od.tuples
            }
            costs.append((self.probes(session) - before, len(distinct)))
        return terms, costs

    def test_searches_follow_the_delta_not_the_corpus(self, monkeypatch):
        small_terms, small = self.write_costs(15, monkeypatch)
        large_terms, large = self.write_costs(45, monkeypatch)
        assert [cost[1] for cost in small] == [cost[1] for cost in large]
        for terms, (first, steady) in ((small_terms, small), (large_terms, large)):
            # The first write seeds the incremental stream with the
            # corpus: a similar-value group per corpus term the one
            # lookup before it did not search, beyond the delta's own.
            searches, distinct = first
            assert 0 < searches <= terms + 4 * distinct
            # Every later write searches what its delta reaches.
            searches, distinct = steady
            assert 0 < searches <= 4 * distinct

    def test_an_empty_write_changes_no_memo(self):
        """A document without candidates adds a source and nothing
        else: the index, the per-object maps (scores, partner lists)
        and every memo entry stay, and the next lookup searches
        nothing.  The
        first write seeds the incremental stream, a search per corpus
        term at most; a second empty write searches nothing."""
        dataset = build_dataset1(15, seed=3)
        session = session_on(dataset, dataset.sources)
        answer = snapshot(session.match(0))
        index = session.index
        memo = session._memo
        stored = tuple(dict(held) for held in memo)
        assert all(stored)  # the filter is on
        memos = (
            dict(index._similar_cache),
            dict(index._pair_idf_cache),
            dict(index._foreign_cache),
        )
        probes = self.probes(session)
        update = session.extend(source_of([]))
        # the first write seeds the incremental stream: a search per
        # corpus term at most, none for the index or the filter
        assert self.probes(session) - probes <= self.corpus_terms(session)
        probes = self.probes(session)
        assert update.added == update.assignments == ()
        assert session.incremental is not None  # the stream is seeded
        assert len(session.corpus) == len(dataset.sources) + 1
        assert session._memo is memo  # the same maps
        assert memo == stored
        for object_id, score in memo[0].items():
            assert score.hex() == filter_score(index, session.ods[object_id]).hex()
        # seeding the stream may add memo entries; none is dropped
        for before, after in zip(
            memos,
            (index._similar_cache, index._pair_idf_cache, index._foreign_cache),
        ):
            assert before.items() <= after.items()
        assert snapshot(session.match(0)) == answer
        session.extend(source_of([]))
        assert session._memo is memo and memo == stored
        assert self.probes(session) == probes


# ----------------------------------------------------------------------
# Session level: the object filter's scores
# ----------------------------------------------------------------------
def assert_held_filter_exact(session: DetectionSession) -> None:
    """Each f the session holds is a fresh :func:`filter_score`'s, to
    the bit."""
    index = session.index
    for object_id, score in session._memo[0].items():
        fresh = filter_score(index, session._by_id[object_id])
        assert score.hex() == fresh.hex(), object_id


def assert_filter_exact(session: DetectionSession) -> None:
    """Reading every object scores each one afresh, and its filter
    decisions are a fresh :class:`ObjectFilter` pass's at the default
    threshold and two overrides, its f a fresh :func:`filter_score`'s
    to the bit."""
    index = session.index
    for theta in (session.config.theta_cand, 0.3, 0.8):
        for od in session.ods:  # every lookup decides its own object
            session.match(od.object_id, theta_cand=theta)
        fresh = ObjectFilter(index, theta)
        assert {
            od.object_id: session._kept(theta, od.object_id) for od in session.ods
        } == {od.object_id: fresh.keep(od) for od in session.ods}, theta
    scores, lists = session._memo
    ids = {od.object_id for od in session.ods}
    assert set(scores) == set(lists) == ids
    assert_held_filter_exact(session)


class TestClassesThroughWrites:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        corpus=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
        deltas=st.lists(
            st.tuples(
                st.lists(st.integers(0, 15), max_size=3),
                st.lists(st.integers(0, 60), max_size=4),
            ),
            min_size=1,
            max_size=5,
        ),
        warm=st.booleans(),
    )
    def test_random_delta_sequences(self, corpus, deltas, warm):
        """Deltas are drawn from the same records as the corpus, so they
        bring new values, dirty duplicates, exact repeats, kinds the
        corpus held once and empty documents.  Between writes a few
        lookups score some objects and leave the rest to be scored on a
        later, grown index."""
        dataset, records = class_fuzz_dataset()
        session = session_on(dataset, [source_of([records[i] for i in corpus])])
        if warm:  # every object is scored before the first write
            assert_filter_exact(session)
        for delta, reads in deltas:
            session.extend(source_of([records[i] for i in delta]))
            assert_held_filter_exact(session)
            for pick in reads:
                session.match(session.ods[pick % len(session.ods)].object_id)
            assert_held_filter_exact(session)
        assert_filter_exact(session)


# ----------------------------------------------------------------------
# Session level: the partner lists
# ----------------------------------------------------------------------
def exact(matches) -> list:
    """A ``match()`` answer with every similarity to the bit."""
    return [(m.object_id, m.similarity.hex(), m.path) for m in matches]


class CountingSimilarity:
    """Stands in for ``DetectionSession._similarity``: counts the pairs
    scored through it."""

    def __init__(self, real) -> None:
        self.real = real
        self.pairs = 0

    def __call__(self, left, right) -> float:
        self.pairs += 1
        return self.real(left, right)

    def __getattr__(self, name):
        return getattr(self.real, name)


def banded_session(dataset, sources, filtered: bool) -> DetectionSession:
    """A session with a possible band, so ``include_possible`` has work
    at every threshold the fuzz draws."""
    return DetectionSession(
        Corpus(sources),
        dataset.mapping,
        dataset.real_world_type,
        DogmatixConfig(use_object_filter=filtered, possible_threshold=0.2),
    )


_LOOKUP = st.tuples(
    st.just("match"),
    st.integers(0, 60),
    st.sampled_from([None, 0.25, 0.3, 0.45, 0.8, 0.95]),
    st.booleans(),
)
_WRITE = st.tuples(st.just("extend"), st.lists(st.integers(0, 15), max_size=3))


class TestPartnerListsThroughWrites:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        corpus=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
        steps=st.lists(st.one_of(_LOOKUP, _WRITE), min_size=1, max_size=12),
        filtered=st.booleans(),
    )
    def test_random_interleavings_answer_like_a_rebuilt_session(
        self, corpus, steps, filtered
    ):
        """Lookups at six thresholds, with and without the possible
        band, interleaved with writes (empty documents among them), so
        lists held at a higher floor are cut, and replaced by lower
        ones: every answer is a session rebuilt over the same
        documents'."""
        dataset, records = class_fuzz_dataset()
        sources = [source_of([records[i] for i in corpus])]
        session = banded_session(dataset, sources, filtered)
        rebuilt = None
        for step in steps:
            if step[0] == "extend":
                sources.append(source_of([records[i] for i in step[1]]))
                session.extend(sources[-1])
                rebuilt = None
                continue
            _, pick, theta, include_possible = step
            if rebuilt is None:
                rebuilt = banded_session(dataset, sources, filtered)
            object_id = session.ods[pick % len(session.ods)].object_id
            got = session.match(
                object_id, theta_cand=theta, include_possible=include_possible
            )
            want = rebuilt.match(
                object_id, theta_cand=theta, include_possible=include_possible
            )
            assert exact(got) == exact(want), (object_id, theta)
            got.clear()  # each call returns its own list

        final = banded_session(dataset, sources, filtered)
        for od in final.ods:
            for theta in (None, 0.3, 0.8):
                assert exact(session.match(od.object_id, theta_cand=theta)) == (
                    exact(final.match(od.object_id, theta_cand=theta))
                ), (od.object_id, theta)

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_a_repeated_lookup_scores_no_pair(self, filtered, monkeypatch):
        """On the running example: a lookup on an unchanged corpus, or
        after a document without candidates, is cut from the held list;
        after a lookup at 0.3, so is one at any higher threshold, with
        the band or not; a write with candidates makes the next lookup
        score again."""
        from repro.core import RDistantDescendants
        from repro.datagen import (
            paper_example_document,
            paper_example_mapping,
            paper_example_schema,
        )

        def build() -> DetectionSession:
            return DetectionSession(
                Source(paper_example_document(), paper_example_schema()),
                paper_example_mapping(),
                "MOVIE",
                DogmatixConfig(
                    heuristic=RDistantDescendants(2),
                    theta_tuple=0.55,
                    theta_cand=0.55,
                    use_object_filter=filtered,
                ),
            )

        session = build()
        spy = CountingSimilarity(session._similarity)
        monkeypatch.setattr(session, "_similarity", spy)

        def answers(target: DetectionSession, theta=None) -> list:
            return [
                exact(
                    target.match(
                        od.object_id, theta_cand=theta, include_possible=possible
                    )
                )
                for od in target.ods
                for possible in (False, True)
            ]

        def lookups(theta=None) -> tuple[int, list]:
            spy.pairs = 0
            got = answers(session, theta)
            return spy.pairs, got

        scored, first = lookups()
        assert scored > 0 or filtered  # the filter prunes all three
        assert lookups() == (0, first)

        session.extend(parse("<moviedoc/>"))
        assert lookups() == (0, first)

        scored, _ = lookups(0.3)
        assert scored > 0  # below the held floor: computed again
        twin = build()
        for theta in (0.3, 0.4, 0.55, 0.8, 1.0):
            assert lookups(theta) == (0, answers(twin, theta)), theta

        session.extend(
            parse(
                "<moviedoc><movie><title>The Matrix</title><year>1999</year>"
                "<actor><name>K. Reeves</name><role>Neo</role></actor>"
                "</movie></moviedoc>"
            )
        )
        scored, grown = lookups()
        assert scored > 0
        assert lookups() == (0, grown)

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_a_lower_floor_replaces_a_higher_one(self, filtered, monkeypatch):
        """Lookups at 0.8, then at 0.3: the lower floor computes again
        and replaces the list under it, one list per object throughout,
        and a lookup back at 0.8 is cut from the 0.3 list, scoring no
        pair and answering as a fresh session does."""
        dataset = build_dataset1(15, seed=3)
        session = banded_session(dataset, dataset.sources, filtered)
        fresh = banded_session(dataset, dataset.sources, filtered)
        spy = CountingSimilarity(session._similarity)
        monkeypatch.setattr(session, "_similarity", spy)
        lists = session._memo[1]
        ids = [od.object_id for od in session.ods]

        def lookups(theta: float) -> tuple[int, list]:
            spy.pairs = 0
            got = [exact(session.match(object_id, theta)) for object_id in ids]
            return spy.pairs, got

        want = {
            theta: [exact(fresh.match(object_id, theta)) for object_id in ids]
            for theta in (0.3, 0.8)
        }
        assert lookups(0.8)[1] == want[0.8]
        assert {held[0] for held in lists.values()} == {0.8}
        scored, got = lookups(0.3)
        assert scored > 0 and got == want[0.3]
        assert set(lists) == set(ids)
        assert {held[0] for held in lists.values()} == {0.3}
        assert lookups(0.8) == (0, want[0.8])
        assert {held[0] for held in lists.values()} == {0.3}

    @pytest.mark.parametrize("filtered", [False, True], ids=["plain", "filtered"])
    def test_a_band_lookup_lists_at_the_possible_threshold(
        self, filtered, monkeypatch
    ):
        """A lookup with the C2 band holds its list at the band's lower
        bound, so a later lookup at any θ_cand above it, band or not,
        scores no pair and answers as a fresh session does."""
        dataset = build_dataset1(15, seed=3)
        session = banded_session(dataset, dataset.sources, filtered)
        fresh = banded_session(dataset, dataset.sources, filtered)
        spy = CountingSimilarity(session._similarity)
        monkeypatch.setattr(session, "_similarity", spy)
        possible = session.config.possible_threshold
        ids = [od.object_id for od in session.ods]
        banded = [
            exact(session.match(object_id, include_possible=True))
            for object_id in ids
        ]
        assert banded == [
            exact(fresh.match(object_id, include_possible=True))
            for object_id in ids
        ]
        lists = session._memo[1]
        assert set(lists) == set(ids)
        assert {held[0] for held in lists.values()} == {possible}
        spy.pairs = 0
        for theta in (None, 0.3, 0.6, 0.9):
            for include_possible in (False, True):
                for object_id in ids:
                    assert exact(
                        session.match(object_id, theta, include_possible)
                    ) == exact(
                        fresh.match(object_id, theta, include_possible)
                    ), (object_id, theta, include_possible)
        assert spy.pairs == 0

    @pytest.mark.parametrize("filtered", [True, False])
    def test_a_first_lookup_scores_each_kept_candidate_once(
        self, filtered, monkeypatch
    ):
        """A lookup no list holds costs what a lookup cost before the
        lists: one similarity per candidate the object filter
        keeps, none for a pruned candidate, none at all for a pruned
        object."""
        dataset = build_dataset1(15, seed=3)
        session = banded_session(dataset, dataset.sources, filtered)
        spy = CountingSimilarity(session._similarity)
        monkeypatch.setattr(session, "_similarity", spy)
        fresh = ObjectFilter(session.index, session.config.theta_cand)
        by_id = {od.object_id: od for od in session.ods}
        for od in session.ods:
            candidates = session._similar_object_ids(od) - {od.object_id}
            if filtered:
                candidates = {
                    candidate
                    for candidate in candidates
                    if fresh.keep(by_id[candidate]) and fresh.keep(od)
                }
            spy.pairs = 0
            session.match(od.object_id)
            assert spy.pairs == len(candidates), od.object_id
