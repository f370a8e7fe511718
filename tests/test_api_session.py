"""Session API tests: Corpus, DetectionSession, registries.

The acceptance-critical properties live here:

* ``DetectionSession.detect()`` reproduces the golden dupcluster XML
  bit for bit;
* ``match()`` on every object returns exactly the partners a full
  ``detect()`` finds for that object (paper example and Dataset 1,
  object filter on and off);
* schema caching lives in ``Corpus``; a ``Source`` stays immutable.
"""

import pathlib

import pytest

from repro.api import (
    CONDITIONS,
    Corpus,
    DetectionSession,
    HEURISTICS,
    Registry,
    heuristic_from_spec,
)
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.eval import build_dataset1
from repro.xmlkit import parse

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def paper_config() -> DogmatixConfig:
    return DogmatixConfig(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )


@pytest.fixture()
def paper_session():
    return DetectionSession(
        Source(paper_example_document(), paper_example_schema()),
        paper_example_mapping(),
        "MOVIE",
        paper_config(),
    )


@pytest.fixture(scope="module")
def dataset1_session():
    dataset = build_dataset1(base_count=30, seed=7)
    return DetectionSession(
        Corpus(dataset.sources),
        dataset.mapping,
        dataset.real_world_type,
        DogmatixConfig(heuristic=KClosestDescendants(6)),
    )


def partners_from_detect(result):
    """object id -> its duplicate partner set, per the batch run."""
    partners: dict[int, set[int]] = {od.object_id: set() for od in result.ods}
    for pair in result.duplicate_pairs:
        partners[pair.left].add(pair.right)
        partners[pair.right].add(pair.left)
    return partners


class TestDetect:
    def test_bit_identical_to_golden(self, paper_session):
        golden = (GOLDEN_DIR / "paper_example_dupclusters.xml").read_text(
            encoding="utf-8"
        )
        assert paper_session.detect().to_xml() == golden

    def test_detect_is_repeatable(self, paper_session):
        first = paper_session.detect()
        second = paper_session.detect()
        assert first.to_xml() == second.to_xml()
        assert first.compared_pairs == second.compared_pairs

    def test_theta_override_matches_fresh_session(self, dataset1_session):
        override = dataset1_session.detect(theta_cand=0.70)
        dataset = build_dataset1(base_count=30, seed=7)
        fresh = DetectionSession(
            dataset.sources,
            dataset.mapping,
            dataset.real_world_type,
            DogmatixConfig(heuristic=KClosestDescendants(6), theta_cand=0.70),
        ).detect()
        assert override.duplicate_id_pairs() == fresh.duplicate_id_pairs()

    def test_index_built_once(self, dataset1_session):
        index_before = dataset1_session.index
        dataset1_session.detect()
        dataset1_session.detect(theta_cand=0.60)
        assert dataset1_session.index is index_before

    def test_pruned_ids_are_the_object_filter_decisions(self, dataset1_session):
        """What the removed ``session.object_filter`` accessor exposed:
        ``pruned_object_ids`` is the objects ``f(OD) <= θ_cand`` prunes,
        in id order, at the default threshold and at an override."""
        from repro.core import ObjectFilter

        for theta in (None, 0.7):
            result = dataset1_session.detect(theta_cand=theta)
            object_filter = ObjectFilter(
                dataset1_session.index,
                dataset1_session.config.theta_cand if theta is None else theta,
            )
            assert result.pruned_object_ids == [
                od.object_id
                for od in dataset1_session.ods
                if not object_filter.keep(od)
            ]
            assert result.pruned_object_ids


class TestResultPaths:
    """A result names each member by its object id, from a snapshot of
    the ODs the run saw, with cluster members in id order — also for
    a session whose ids are not the positions ``0..n-1``."""

    @pytest.fixture(scope="class")
    def built(self):
        dataset = build_dataset1(base_count=20, seed=7)
        return DetectionSession(
            dataset.sources, dataset.mapping, dataset.real_world_type
        )

    @pytest.mark.parametrize("ids", ["reversed", "shifted"])
    def test_paths_are_the_ones_match_names(self, built, ids):
        from repro.framework import ObjectDescription

        ods = list(built.ods)
        if ids == "reversed":
            ods.reverse()
        else:
            ods = [
                ObjectDescription(od.object_id + 100, od.tuples, od.element)
                for od in ods
            ]
        session = DetectionSession.from_ods(
            ods, built.mapping, built.real_world_type
        )
        result = session.detect()
        assert result.clusters and result.to_xml() == built.detect().to_xml()
        for cluster in result.clusters:
            assert cluster == sorted(cluster)
        for pair in result.duplicate_pairs:
            partners = {
                m.object_id: m.path for m in session.match(pair.left)
            }
            assert partners[pair.right] == result.object_path(pair.right)
            assert result.object_path(pair.left) == session.object_path(
                pair.left
            )

    def test_a_result_keeps_the_ods_it_saw(self):
        session = DetectionSession(
            Source(paper_example_document(), paper_example_schema()),
            paper_example_mapping(),
            "MOVIE",
            paper_config(),
        )
        result = session.detect()
        xml = result.to_xml()
        assert isinstance(result.ods, tuple) and result.ods is not session._ods
        late = "<moviedoc><movie><title>Sings</title></movie></moviedoc>"
        session.extend(Source(parse(late), paper_example_schema()))
        assert len(result.ods) == len(session.ods) - 1
        assert result.to_xml() == xml


class TestMatch:
    def test_paper_example_matches_detect(self, paper_session):
        expected = partners_from_detect(paper_session.detect())
        for od in paper_session.ods:
            found = {m.object_id for m in paper_session.match(od.object_id)}
            assert found == expected[od.object_id], (
                f"match() diverged from detect() for object {od.object_id}"
            )

    def test_dataset1_matches_detect_with_filter(self, dataset1_session):
        """Every object, with the object filter active (default config)."""
        expected = partners_from_detect(dataset1_session.detect())
        for od in dataset1_session.ods:
            found = {m.object_id for m in dataset1_session.match(od.object_id)}
            assert found == expected[od.object_id], (
                f"match() diverged from detect() for object {od.object_id}"
            )

    def test_dataset1_matches_detect_without_filter(self):
        dataset = build_dataset1(base_count=30, seed=7)
        session = DetectionSession(
            dataset.sources,
            dataset.mapping,
            dataset.real_world_type,
            DogmatixConfig(
                heuristic=KClosestDescendants(6), use_object_filter=False
            ),
        )
        expected = partners_from_detect(session.detect())
        for od in session.ods:
            found = {m.object_id for m in session.match(od.object_id)}
            assert found == expected[od.object_id]

    def test_match_scores_and_paths(self, paper_session):
        (match,) = paper_session.match(0)
        assert match.object_id == 1
        assert match.path == "/moviedoc/movie[2]"
        assert match.similarity > 0.55

    def test_match_by_element_and_od(self, paper_session):
        od = paper_session.ods[0]
        by_id = paper_session.match(0)
        assert paper_session.match(od.element) == by_id
        assert paper_session.match(od) == by_id

    def test_match_foreign_element(self, paper_session):
        foreign = parse(
            "<moviedoc><movie><title>Sings</title><year>2002</year>"
            "</movie></moviedoc>"
        )
        matches = paper_session.match(foreign.root.children[0])
        assert [m.object_id for m in matches] == [2]  # the "Signs" movie

    def test_foreign_od_id_never_collides_with_corpus_ids(self):
        """Regression: foreign elements used a hard-coded od id of -1.

        Candidate ids are not constrained to 0..n-1, so a corpus can
        legitimately contain an object with id -1 — and the filter's
        ``exclude=od.object_id`` then silently dropped that *real*
        object (here: the foreign element's only duplicate, the paper's
        movie 1) from the shared-evidence search, pruning the foreign
        object and turning its match() answer into [].  The session now
        assigns a sentinel id strictly outside the corpus id space.
        """
        from repro.core import ObjectFilter
        from repro.framework import ObjectDescription

        config = DogmatixConfig(
            heuristic=RDistantDescendants(2),
            theta_tuple=0.55,
            theta_cand=0.3,
            use_object_filter=True,
        )
        mapping = paper_example_mapping()
        corpus = Corpus(Source(paper_example_document(), paper_example_schema()))
        base = corpus.generate_ods(mapping, "MOVIE", config)
        renumbered = [  # movie 1 becomes object -1
            ObjectDescription(
                -1 if od.object_id == 0 else od.object_id, od.tuples, od.element
            )
            for od in base
        ]
        session = DetectionSession(corpus, mapping, "MOVIE", config, ods=renumbered)
        # A foreign element whose only shared values (L. Fishburne /
        # Morpheus) live in object -1.
        foreign = parse(
            "<moviedoc><movie><actor><name>L. Fishburne</name>"
            "<role>Morpheus</role></actor></movie></moviedoc>"
        )
        element = foreign.root.children[0]
        foreign_od = session._resolve_od(element)
        assert foreign_od.object_id not in {od.object_id for od in renumbered}
        # With the old colliding id, the filter sees no shared evidence:
        collided = ObjectDescription(-1, foreign_od.tuples, foreign_od.element)
        assert not ObjectFilter(session.index, 0.3).keep(collided)
        # The sentinel id keeps object -1's evidence in play end to end.
        assert ObjectFilter(session.index, 0.3).keep(foreign_od)
        assert [m.object_id for m in session.match(element)] == [-1]

    def test_each_foreign_element_gets_a_distinct_sentinel_id(self):
        """Two different foreign elements must not share a sentinel id:
        ObjectFilter.score memoizes per object id, so a shared id
        would silently apply the first element's filter verdict to the
        second one anywhere a filter instance outlives one lookup."""
        from repro.core import ObjectFilter

        session = DetectionSession(
            Source(paper_example_document(), paper_example_schema()),
            paper_example_mapping(),
            "MOVIE",
            DogmatixConfig(
                heuristic=RDistantDescendants(2),
                theta_tuple=0.55,
                theta_cand=0.55,
            ),
        )
        matrix = parse(
            "<moviedoc><movie><title>The Matrix</title><year>1999</year>"
            "</movie></moviedoc>"
        )
        loner = parse(
            "<moviedoc><movie><title>Solaris</title><year>1972</year>"
            "</movie></moviedoc>"
        )
        od_matrix = session._resolve_od(matrix.root.children[0])
        od_loner = session._resolve_od(loner.root.children[0])
        corpus_ids = {od.object_id for od in session.ods}
        assert od_matrix.object_id not in corpus_ids
        assert od_loner.object_id not in corpus_ids
        assert od_matrix.object_id != od_loner.object_id
        shared = ObjectFilter(session.index, 0.55)
        assert shared.keep(od_matrix)  # shares title/year evidence
        assert not shared.keep(od_loner)  # nothing similar anywhere

    def test_match_unknown_id(self, paper_session):
        with pytest.raises(KeyError):
            paper_session.match(99)

    def test_match_bad_type(self, paper_session):
        with pytest.raises(TypeError):
            paper_session.match("movie[1]")


class TestThresholdOverride:
    """``match()`` and ``detect()`` check a ``theta_cand`` override the
    same way: a value no run could use raises ``ValueError`` from both
    (``match`` used to answer ``[]`` above 1 and every partner below 0,
    while ``detect`` raised)."""

    @pytest.fixture()
    def banded_session(self):
        config = paper_config()
        config.use_object_filter = True
        config.possible_threshold = 0.05
        return DetectionSession(
            Source(paper_example_document(), paper_example_schema()),
            paper_example_mapping(),
            "MOVIE",
            config,
        )

    @pytest.mark.parametrize(
        "theta",
        [2.0, 1.0000001, -0.5, float("nan"), float("inf"), 0.05, 0.01],
        ids=["above-1", "just-above-1", "negative", "nan", "inf",
             "at-possible", "below-possible"],
    )
    @pytest.mark.parametrize("use_object_filter", [False, True])
    def test_bad_theta_raises_from_match_and_detect(
        self, banded_session, theta, use_object_filter
    ):
        banded_session.config.use_object_filter = use_object_filter
        with pytest.raises(ValueError, match="theta_cand|possible_threshold"):
            banded_session.match(0, theta_cand=theta)
        with pytest.raises(ValueError, match="theta_cand|possible_threshold"):
            banded_session.detect(theta_cand=theta)

    @pytest.mark.parametrize("theta", [0.06, 0.1, 1.0])
    def test_theta_in_range_agrees_between_match_and_detect(
        self, banded_session, theta
    ):
        expected = partners_from_detect(banded_session.detect(theta_cand=theta))
        for od in banded_session.ods:
            found = banded_session.match(od.object_id, theta_cand=theta)
            assert {m.object_id for m in found} == expected[od.object_id]


class TestExtend:
    def test_extend_clusters_new_duplicate(self, paper_session):
        schema = paper_example_schema()
        late = parse(
            "<moviedoc><movie><title>Sings</title><year>2002</year>"
            "</movie></moviedoc>"
        )
        update = paper_session.extend(Source(late, schema))
        assert len(update.added) == 1
        (assignment,) = update.assignments
        new_id, cluster = assignment
        assert new_id == 3  # ids continue after the base candidate set
        # The dirty "Sings" joins the cluster containing "Signs" (id 2).
        assert any(
            set(members) >= {2, 3} for members in update.duplicate_clusters
        )

    def test_extend_twice_continues_ids(self, paper_session):
        schema = paper_example_schema()
        first = paper_session.extend(
            Source(parse("<moviedoc><movie><title>Heat</title>"
                         "<year>1995</year></movie></moviedoc>"), schema)
        )
        second = paper_session.extend(
            Source(parse("<moviedoc><movie><title>Heat</title>"
                         "<year>1995</year></movie></moviedoc>"), schema)
        )
        assert first.added[0].object_id == 3
        assert second.added[0].object_id == 4
        assert any(
            set(members) >= {3, 4} for members in second.duplicate_clusters
        )
        assert paper_session.incremental is not None

    def test_extend_merges_into_standing_index(self, paper_session):
        """extend() delta-merges the new source into the live index:
        statistics grow and the candidate set covers the extension
        (the pre-PR-5 snapshot-index limitation, now fixed)."""
        before = paper_session.index.total_objects
        terms_before = paper_session.index.statistics()["terms"]
        paper_session.extend(
            Source(parse("<moviedoc><movie><title>Alien</title>"
                         "<year>1979</year></movie></moviedoc>"),
                   paper_example_schema())
        )
        assert paper_session.index.total_objects == before + 1
        assert len(paper_session.ods) == before + 1
        assert paper_session.index.statistics()["terms"] > terms_before
        assert paper_session.index.occurrences("TITLE", "Alien") == {3}

    def test_match_and_detect_see_extended_objects(self, paper_session):
        """Regression (PR 5 satellite): partners among objects added
        via extend() are found by match() and by a follow-up detect().
        Before the delta merge, the snapshot index silently missed
        them."""
        update = paper_session.extend(
            Source(parse("<moviedoc><movie><title>Sings</title>"
                         "<year>2002</year></movie></moviedoc>"),
                   paper_example_schema())
        )
        (new_id, _) = update.assignments[0]
        assert new_id == 3
        # The standing object "Signs" (id 2) now matches the extension...
        assert 3 in [m.object_id for m in paper_session.match(2)]
        # ...the extension matches back...
        assert 2 in [m.object_id for m in paper_session.match(3)]
        # ...and a full batch detect() reports the pair and cluster.
        result = paper_session.detect()
        assert (2, 3) in result.duplicate_id_pairs()
        assert any(set(c) >= {2, 3} for c in result.clusters)

    def test_extend_detect_identical_to_fresh_build(self):
        """detect() after extend() is bit-identical to a session built
        cold over the grown corpus (same candidate ids: single
        candidate xpath, sources in insertion order)."""
        schema = paper_example_schema()
        late = ("<moviedoc><movie><title>Sings</title><year>2002</year>"
                "</movie></moviedoc>")
        session = DetectionSession(
            Source(paper_example_document(), schema),
            paper_example_mapping(),
            "MOVIE",
            paper_config(),
        )
        session.extend(Source(parse(late), schema))
        fresh = DetectionSession(
            Corpus([Source(paper_example_document(), schema),
                    Source(parse(late), schema)]),
            paper_example_mapping(),
            "MOVIE",
            paper_config(),
        )
        extended = session.detect()
        assert extended.identical_to(fresh.detect())
        # match() agrees with the fresh session object for object.
        for od in fresh.ods:
            fresh_partners = [
                (m.object_id, m.similarity) for m in fresh.match(od.object_id)
            ]
            extended_partners = [
                (m.object_id, m.similarity)
                for m in session.match(od.object_id)
            ]
            assert extended_partners == fresh_partners

    def test_extend_after_parallel_detect_matches_serial(self, paper_session):
        """``detect(policy=…)`` still takes a worker policy and has no
        effect: the result, and an ``extend()`` after it, are a plain
        session's, golden-pinned on the paper's Fig. 3 example."""
        from repro.engine import ExecutionPolicy

        serial_session = DetectionSession(
            Source(paper_example_document(), paper_example_schema()),
            paper_example_mapping(),
            "MOVIE",
            paper_config(),
        )
        serial_result = serial_session.detect()
        parallel_result = paper_session.detect(
            policy=ExecutionPolicy.for_workers(2)
        )
        golden = (GOLDEN_DIR / "paper_example_dupclusters.xml").read_text(
            encoding="utf-8"
        )
        assert parallel_result.to_xml() == serial_result.to_xml() == golden

        late = "<moviedoc><movie><title>Sings</title><year>2002</year></movie></moviedoc>"
        schema = paper_example_schema()
        serial_update = serial_session.extend(Source(parse(late), schema))
        parallel_update = paper_session.extend(Source(parse(late), schema))
        assert parallel_update.assignments == serial_update.assignments
        assert parallel_update.duplicate_clusters == serial_update.duplicate_clusters
        assert [od.object_id for od in parallel_update.added] == [
            od.object_id for od in serial_update.added
        ]
        # Pinned outcome on the running example: the late dirty "Sings"
        # (id 3) joins "Signs" (id 2); the Matrix pair {0, 1} persists.
        assert any(set(c) >= {0, 1} for c in parallel_update.duplicate_clusters)
        assert any(set(c) >= {2, 3} for c in parallel_update.duplicate_clusters)


class TestExplanation:
    def test_fields(self, paper_session):
        explanation = paper_session.explain(0, 1)
        assert explanation.left == 0 and explanation.right == 1
        assert explanation.similarity == pytest.approx(0.75)
        assert len(explanation.similar_pairs) == 3
        assert len(explanation.contradictory_pairs) == 1
        assert explanation.set_soft_idf_similar > 0
        assert any("similar" in line for line in explanation.lines())

    def test_immutable(self, paper_session):
        explanation = paper_session.explain(0, 1)
        with pytest.raises(AttributeError):
            explanation.similarity = 0.0


class TestCorpus:
    def test_schema_inference_cached(self, monkeypatch):
        # the corpus resolves inference at its use site, from here
        import repro.xmlkit.schema_infer as inference_module

        calls = {"count": 0}
        original = inference_module.infer_schema

        def counting(document):
            calls["count"] += 1
            return original(document)

        monkeypatch.setattr(inference_module, "infer_schema", counting)
        corpus = Corpus(Source(paper_example_document()))  # no schema given
        source = corpus.sources[0]
        first = corpus.schema_of(source)
        second = corpus.schema_of(source)
        assert first is second
        assert calls["count"] == 1

    def test_source_stays_immutable(self):
        source = Source(paper_example_document())
        corpus = Corpus(source)
        corpus.schema_of(source)
        assert source.schema is None  # cache lives in the corpus
        with pytest.raises(AttributeError):
            source.schema = paper_example_schema()

    def test_resolved_schema_no_longer_mutates(self):
        source = Source(paper_example_document())
        assert source.resolved_schema() is not None
        assert source.schema is None

    def test_add_source_variants(self):
        corpus = Corpus()
        corpus.add_source(paper_example_document())
        corpus.add_source(paper_example_document(), paper_example_schema())
        corpus.add_source(Source(paper_example_document()))
        assert len(corpus) == 3
        with pytest.raises(ValueError):
            corpus.add_source(
                Source(paper_example_document(), paper_example_schema()),
                paper_example_schema(),
            )

    def test_transient_sources_never_alias_in_cache(self):
        """Recycled object ids must not resurrect a dead source's schema
        (the cache is keyed by the source value, which it keeps alive)."""
        corpus = Corpus()
        for index in range(50):
            document = parse(f"<doc{index}><x>v</x></doc{index}>")
            corpus.schema_of(Source(document))  # transient, not held
        fresh = parse("<zzz><y>v</y></zzz>")
        schema = corpus.schema_of(Source(fresh))
        assert schema.get("/zzz") is not None

    def test_shared_source_across_sessions(self):
        """One Source object can safely feed two sessions."""
        source = Source(paper_example_document(), paper_example_schema())
        mapping = paper_example_mapping()
        first = DetectionSession(source, mapping, "MOVIE", paper_config())
        second = DetectionSession(source, mapping, "MOVIE", paper_config())
        assert first.detect().to_xml() == second.detect().to_xml()


class TestRegistries:
    def test_builtin_names(self):
        assert HEURISTICS.names() == ["ancestors", "kclosest", "rdistant"]
        assert CONDITIONS.names() == ["cm", "me", "sdt", "se"]

    def test_aliases(self):
        assert HEURISTICS.get("k") is KClosestDescendants
        assert HEURISTICS.canonical_name("r") == "rdistant"

    def test_unknown_name_lists_known(self):
        with pytest.raises(LookupError, match="kclosest"):
            HEURISTICS.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(ValueError):
            registry.register("a", 2)
        with pytest.raises(ValueError):
            registry.register("b", 3, aliases=("a",))

    def test_heuristic_spec_union(self):
        heuristic = heuristic_from_spec("rdistant:1+ancestors:2")
        assert heuristic == heuristic_from_spec("rdistant:1+ancestors:2")
        assert heuristic != heuristic_from_spec("rdistant:1")
