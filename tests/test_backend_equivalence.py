"""``detect()`` against the batch path it replaced: the parity oracle.

A session's ``detect()`` is the per-object loop ``match()`` runs: the
object filter from the session's tuple classes, candidates from the
similar-value groups, each unordered pair scored once.  Until it was,
``detect()`` ran the generic framework instead — ``ObjectFilter``,
``ObjectFilterPruning`` over ``SharedTupleBlocking`` and
``DetectionPipeline`` — and that path lives on as
``tests/reference/batch_path.py``.  For any corpus, switch,
threshold and write history the loop must give the reference's
``ScoredPair`` list (order, ids, scores to the bit, labels), clusters,
dupcluster XML and pruned ids; it may compare fewer pairs (blocking's
keys also pair objects that only share a third value similar to both),
never more.

Seeded-random corpora sweep block-size pathologies: one giant block,
all-singleton blocks, objects with empty descriptions, zipf-skewed
blocks and near-duplicates, each under every combination of the
session's switches.  A second invariant needs no reference:
``detect()``'s pairs are the union of every object's
``match(include_possible=True)`` partners, scores to the bit.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference import batch_path
from repro.api import Corpus, DetectionSession
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    cd_schema,
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.eval import build_dataset1, build_dataset2
from repro.framework import TypeMapping, od_from_pairs
from repro.xmlkit import Document, Element

SEEDS = (101, 202)

#: Corpus shapes the generator can produce (block-size pathologies).
SHAPES = ("uniform", "giant", "singleton", "empty", "skewed", "dupes")

KINDS = ("title", "artist", "year")

def random_corpus(seed: int, shape: str, count: int = 36):
    """A seeded-random OD instance with a controlled block structure."""
    rng = random.Random(f"{seed}:{shape}")
    alphabet = "abcdefgh"

    def word(length: int = 8) -> str:
        return "".join(rng.choice(alphabet) for _ in range(length))

    def typo(value: str) -> str:
        index = rng.randrange(len(value))
        return value[:index] + rng.choice(alphabet) + value[index + 1 :]

    pool = {kind: [word() for _ in range(max(3, count // 3))] for kind in KINDS}
    records: list[dict[str, str]] = []
    for i in range(count):
        if shape == "dupes" and records and rng.random() < 0.5:
            # near-duplicate of an earlier record: one value typo'd
            base = dict(rng.choice(records))
            victim = rng.choice(sorted(base))
            base[victim] = typo(base[victim])
            records.append(base)
            continue
        record: dict[str, str] = {}
        for kind in KINDS:
            if rng.random() < 0.15:  # missing data
                continue
            if shape == "singleton":
                record[kind] = f"{word()}-{i}-{kind}"  # unique everywhere
            elif shape == "skewed":
                values = pool[kind]
                # zipf-ish choice: low ranks vastly more popular
                rank = min(int(rng.paretovariate(1.0)) - 1, len(values) - 1)
                record[kind] = values[rank]
            else:
                record[kind] = rng.choice(pool[kind])
        if shape == "empty" and rng.random() < 0.3:
            record = {}  # object with an empty description
        if shape == "giant":
            record["genre"] = "common"  # every object shares one block
        records.append(record)

    ods = []
    for i, record in enumerate(records):
        pairs = [
            (value, f"/db/item[{i + 1}]/{kind}[1]")
            for kind, value in sorted(record.items())
        ]
        ods.append(od_from_pairs(i, pairs))
    return ods


def session_over(ods, **config_kwargs) -> DetectionSession:
    config = DogmatixConfig(theta_tuple=0.25, **config_kwargs)
    mapping = TypeMapping().add("ITEM", "/db/item")
    return DetectionSession.from_ods(ods, mapping, "ITEM", config)


def exact(result) -> list:
    """A result's pairs with every score to the bit."""
    return [
        (pair.left, pair.right, pair.similarity.hex(), pair.label)
        for pair in result.pairs
    ]


def assert_detect_is_the_reference(session, theta=None):
    """``session.detect(theta)`` against the batch path; returns both
    results."""
    result = session.detect(theta_cand=theta)
    reference, _ = batch_path.detect(session, theta)
    assert exact(result) == exact(reference)
    assert result.pairs == reference.pairs
    assert result.clusters == reference.clusters
    assert result.to_xml() == reference.to_xml()
    assert result.pruned_object_ids == reference.pruned_object_ids
    assert result.compared_pairs <= reference.compared_pairs
    return result, reference


# ----------------------------------------------------------------------
# The fuzzed shapes under every switch, against the reference
# ----------------------------------------------------------------------
#: Every combination of the session's four switches, so each block-size
#: pathology also meets the unblocked loop, the all-pairs semantics, the
#: C2 band and the unfiltered corpus.
SWITCHES = tuple(
    {
        "use_object_filter": filtered,
        "use_blocking": blocking,
        "possible_threshold": band,
        "similar_semantics": semantics,
    }
    for filtered in (True, False)
    for blocking in (True, False)
    for band in (None, 0.2)
    for semantics in ("matching", "all-pairs")
)


def switches_id(switches: dict) -> str:
    return "-".join(
        (
            "filter" if switches["use_object_filter"] else "no-filter",
            "blocked" if switches["use_blocking"] else "unblocked",
            "two-class" if switches["possible_threshold"] is None else "band",
            switches["similar_semantics"],
        )
    )


class TestFuzzedShapes:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("switches", SWITCHES, ids=switches_id)
    def test_fuzzed_corpora(self, seed, shape, switches):
        session = session_over(random_corpus(seed, shape), **switches)
        first, _ = assert_detect_is_the_reference(session)
        assert session.detect().identical_to(first)  # from the read slot

    @pytest.mark.slow
    def test_dirty_dataset_end_to_end(self):
        """A generator corpus from XML: result paths are real XPaths."""
        dataset = build_dataset1(base_count=30, seed=7)
        session = DetectionSession(
            Corpus(dataset.sources),
            dataset.mapping,
            dataset.real_world_type,
            DogmatixConfig(possible_threshold=0.3),
        )
        result, _ = assert_detect_is_the_reference(session)
        assert result.duplicate_pairs and result.possible_pairs
        assert "/freedb/disc[" in result.to_xml()


# ----------------------------------------------------------------------
# The running example and the generated corpora
# ----------------------------------------------------------------------
def dataset_session(dataset, config: DogmatixConfig) -> DetectionSession:
    return DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type, config
    )


class TestCorpora:
    @pytest.fixture(scope="class")
    def dirty_cds(self):
        return build_dataset1(base_count=25, seed=7)

    def test_paper_example(self):
        session = DetectionSession(
            [Source(paper_example_document(), paper_example_schema())],
            paper_example_mapping(),
            "MOVIE",
            DogmatixConfig(
                heuristic=RDistantDescendants(2),
                theta_tuple=0.55,
                theta_cand=0.55,
                use_object_filter=False,
            ),
        )
        result, _ = assert_detect_is_the_reference(session)
        assert result.duplicate_pairs  # the Matrix pair is found

    def test_dirty_cds(self, dirty_cds):
        config = DogmatixConfig(heuristic=KClosestDescendants(6))
        session = dataset_session(dirty_cds, config)
        result, _ = assert_detect_is_the_reference(session)
        assert result.duplicate_pairs

    def test_dirty_movies(self):
        config = DogmatixConfig(
            heuristic=RDistantDescendants(4), use_object_filter=False
        )
        session = dataset_session(build_dataset2(count=20, seed=13), config)
        result, _ = assert_detect_is_the_reference(session)
        assert result.duplicate_pairs

    def test_possible_band(self, dirty_cds):
        config = DogmatixConfig(
            heuristic=KClosestDescendants(6), possible_threshold=0.30
        )
        session = dataset_session(dirty_cds, config)
        result, _ = assert_detect_is_the_reference(session)
        assert result.possible_pairs  # the band is actually exercised


# ----------------------------------------------------------------------
# Every switch, both semantics, threshold overrides
# ----------------------------------------------------------------------
THETAS = (None, 0.3, 0.8)


class TestSwitches:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("semantics", ("matching", "all-pairs"))
    @pytest.mark.parametrize("band", (None, 0.2), ids=("two-class", "band"))
    @pytest.mark.parametrize("blocking", (True, False), ids=("blocked", "all-pairs"))
    @pytest.mark.parametrize("filtered", (True, False), ids=("filter", "no-filter"))
    def test_every_switch_at_three_thresholds(
        self, seed, semantics, band, blocking, filtered
    ):
        session = session_over(
            random_corpus(seed, "dupes", count=24),
            use_object_filter=filtered,
            use_blocking=blocking,
            possible_threshold=band,
            similar_semantics=semantics,
        )
        for theta in THETAS:
            result, reference = assert_detect_is_the_reference(session, theta)
            if not blocking:  # both enumerate every pair of kept objects
                assert result.compared_pairs == reference.compared_pairs

    def test_the_band_and_the_filter_have_work(self):
        session = session_over(random_corpus(SEEDS[0], "dupes"), possible_threshold=0.2)
        result = session.detect(theta_cand=0.3)
        assert result.duplicate_pairs and result.possible_pairs
        assert result.pruned_object_ids

    def test_ids_that_are_not_positions(self):
        """ODs in reverse order with ids shifted by 100: the loop runs in
        id order, so the answer is the plain corpus's, shifted."""
        ods = random_corpus(SEEDS[0], "dupes")
        shifted = [
            od_from_pairs(od.object_id + 100, [(t.value, t.name) for t in od.tuples])
            for od in reversed(ods)
        ]
        result = session_over(shifted).detect()
        plain = session_over(ods).detect()

        def unshifted(pair):
            return (pair.left - 100, pair.right - 100, pair.similarity.hex())

        assert [unshifted(p) for p in result.pairs] == [
            (p.left, p.right, p.similarity.hex()) for p in plain.pairs
        ]
        assert [[i - 100 for i in c] for c in result.clusters] == plain.clusters
        assert [i - 100 for i in result.pruned_object_ids] == plain.pruned_object_ids


# ----------------------------------------------------------------------
# Through writes, and the union of the lookups
# ----------------------------------------------------------------------
def source_of(records) -> Source:
    root = Element("freedb")
    for record in records:
        root.append(record.copy())
    return Source(Document(root), cd_schema())


@functools.lru_cache(maxsize=1)
def class_fuzz_dataset():
    """Dataset 1 with every disc and its dirty duplicate: the records
    the write fuzz cuts corpora and deltas from."""
    dataset = build_dataset1(8, seed=7)
    records = tuple(dataset.sources[0].document.root.children)
    assert len(records) == 16  # the indices the fuzz below draws
    return dataset, records


def written_session(corpus, deltas, filtered, band) -> DetectionSession:
    dataset, records = class_fuzz_dataset()
    session = DetectionSession(
        Corpus([source_of([records[i] for i in corpus])]),
        dataset.mapping,
        dataset.real_world_type,
        DogmatixConfig(use_object_filter=filtered, possible_threshold=band),
    )
    for delta in deltas:
        session.extend(source_of([records[i] for i in delta]))
    return session


_CORPUS = st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True)
_DELTAS = st.lists(st.lists(st.integers(0, 15), max_size=3), max_size=4)
_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestThroughWrites:
    @_FUZZ
    @given(
        corpus=_CORPUS,
        deltas=_DELTAS,
        filtered=st.booleans(),
        band=st.sampled_from((None, 0.2)),
    )
    def test_detect_after_random_extends_is_the_reference(
        self, corpus, deltas, filtered, band
    ):
        """After each write, at three thresholds (slots warm from the
        write before are dropped by it)."""
        dataset, records = class_fuzz_dataset()
        session = written_session(corpus, [], filtered, band)
        for delta in [[], *deltas]:
            session.extend(source_of([records[i] for i in delta]))
            for theta in THETAS:
                assert_detect_is_the_reference(session, theta)


def union_of_matches(session, theta) -> dict:
    """Every object's ``match(include_possible=True)`` partners as
    unordered pairs, each with the set of scores it was reported at."""
    union: dict[tuple[int, int], set[str]] = {}
    for od in session.ods:
        for partner in session.match(
            od.object_id, theta_cand=theta, include_possible=True
        ):
            pair = tuple(sorted((od.object_id, partner.object_id)))
            union.setdefault(pair, set()).add(partner.similarity.hex())
    return union


class TestDetectIsTheUnionOfMatches:
    @_FUZZ
    @given(
        corpus=_CORPUS,
        deltas=_DELTAS,
        filtered=st.booleans(),
        band=st.sampled_from((None, 0.2)),
        theta=st.sampled_from(THETAS),
        detect_first=st.booleans(),
    )
    def test_pairs_are_every_objects_partners(
        self, corpus, deltas, filtered, band, theta, detect_first
    ):
        session = written_session(corpus, deltas, filtered, band)
        if detect_first:  # whichever fills the slot's filter decisions
            result = session.detect(theta_cand=theta)
            union = union_of_matches(session, theta)
        else:
            union = union_of_matches(session, theta)
            result = session.detect(theta_cand=theta)
        assert {
            (pair.left, pair.right): {pair.similarity.hex()}
            for pair in result.pairs
        } == union
