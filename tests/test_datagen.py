"""Dataset generator tests: determinism, structure, gold standard."""

import random

import pytest

from repro.datagen import (
    DirtyConfig,
    DirtyDataGenerator,
    GOLD_ATTRIBUTE,
    cd_to_element,
    corrupt,
    freedb_large_corpus,
    generate_cds,
    generate_movies,
    gold_id,
    imdb_element,
    introduce_typo,
    movie_corpus,
    movie_mapping,
    DEFAULT_SYNONYMS,
    SynonymTable,
)
from repro.datagen.freedb import cd_schema
from repro.datagen.movies import filmdienst_element, filmdienst_schema, imdb_schema
from repro.strings import normalized_edit_distance
from repro.xmlkit import DataType, UNBOUNDED


class TestTypos:
    def test_typo_changes_value(self):
        rng = random.Random(1)
        for _ in range(100):
            assert introduce_typo("hello world", rng) != "hello world"

    def test_typo_single_char(self):
        rng = random.Random(2)
        for _ in range(100):
            assert introduce_typo("x", rng) != "x"

    def test_empty_unchanged(self):
        assert introduce_typo("", random.Random(0)) == ""

    def test_typo_edit_distance_is_small(self):
        rng = random.Random(3)
        from repro.strings import edit_distance

        for _ in range(200):
            mutated = introduce_typo("The Quick Brown Fox", rng)
            assert 1 <= edit_distance("The Quick Brown Fox", mutated) <= 2

    def test_corrupt_deterministic_per_seed(self):
        a = corrupt("reproducible", random.Random(42))
        b = corrupt("reproducible", random.Random(42))
        assert a == b


class TestSynonyms:
    def test_whole_value_substitution(self):
        rng = random.Random(1)
        assert DEFAULT_SYNONYMS.substitute("Rock", rng) == "Rock & Roll"

    def test_token_substitution(self):
        rng = random.Random(1)
        result = DEFAULT_SYNONYMS.substitute("Night Love Story", rng)
        assert result != "Night Love Story"
        assert any(word in result for word in ("Evening", "Romance"))

    def test_unknown_value_unchanged(self):
        rng = random.Random(1)
        assert DEFAULT_SYNONYMS.substitute("Zorbification", rng) == "Zorbification"

    def test_alternatives_exclude_self(self):
        for word in ("Rock", "Love", "Ocean"):
            assert word not in DEFAULT_SYNONYMS.alternatives(word)

    def test_custom_table(self):
        table = SynonymTable((("a", "b", "c"),))
        assert set(table.alternatives("a")) == {"b", "c"}
        assert "a" in table

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError):
            SynonymTable((("lonely",),))


class TestDirtyDataGenerator:
    def make_generator(self, **kwargs):
        defaults = dict(
            duplicate_fraction=1.0, typo_rate=0.5, missing_rate=0.3,
            synonym_rate=0.1,
        )
        defaults.update(kwargs)
        return DirtyDataGenerator(DirtyConfig(**defaults), seed=5)

    def test_duplicate_keeps_gid(self):
        disc = cd_to_element(generate_cds(3, seed=1)[0])
        duplicate = self.make_generator().duplicate(disc)
        assert gold_id(duplicate) == gold_id(disc)

    def test_original_untouched(self):
        disc = cd_to_element(generate_cds(3, seed=1)[0])
        before = [t.value for t in _leaf_values(disc)]
        self.make_generator().duplicate(disc)
        assert [t.value for t in _leaf_values(disc)] == before

    def test_typos_applied(self):
        disc = cd_to_element(generate_cds(3, seed=1)[0])
        duplicate = self.make_generator(missing_rate=0.0).duplicate(disc)
        original_values = [t.value for t in _leaf_values(disc)]
        duplicate_values = [t.value for t in _leaf_values(duplicate)]
        assert original_values != duplicate_values

    def test_missing_data_removes_elements(self):
        disc = cd_to_element(generate_cds(5, seed=2)[0])
        generator = self.make_generator(typo_rate=0.0, missing_rate=0.9)
        duplicate = generator.duplicate(disc)
        assert len(list(duplicate.iter())) < len(list(disc.iter()))

    def test_zero_rates_produce_exact_copy(self):
        disc = cd_to_element(generate_cds(3, seed=1)[1])
        generator = self.make_generator(
            typo_rate=0.0, missing_rate=0.0, synonym_rate=0.0
        )
        duplicate = generator.duplicate(disc)
        assert [t.value for t in _leaf_values(duplicate)] == [
            t.value for t in _leaf_values(disc)
        ]

    def test_duplicate_fraction(self):
        originals = [cd_to_element(r) for r in generate_cds(10, seed=3)]
        generator = self.make_generator(duplicate_fraction=0.5)
        duplicates = generator.duplicate_corpus(originals)
        assert len(duplicates) == 5

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DirtyConfig(typo_rate=1.5)


def _leaf_values(element):
    from repro.framework import ODTuple

    return [
        ODTuple(node.text, node.generic_path())
        for node in element.iter()
        if not node.children and node.text
    ]


class TestFreeDB:
    def test_deterministic(self):
        assert [r.did for r in generate_cds(20, seed=9)] == [
            r.did for r in generate_cds(20, seed=9)
        ]

    def test_different_seeds_differ(self):
        a = [r.titles for r in generate_cds(20, seed=1)]
        b = [r.titles for r in generate_cds(20, seed=2)]
        assert a != b

    def test_did_block_structure(self):
        records = generate_cds(8, seed=1)
        # within a block of 4: dids differ in exactly the last char
        assert records[0].did[:7] == records[3].did[:7]
        assert records[0].did != records[3].did
        # across blocks: many characters differ
        assert normalized_edit_distance(records[0].did, records[4].did) > 0.15

    def test_first_record_complete(self):
        first = generate_cds(10, seed=4)[0]
        assert first.genre is not None
        assert first.extras

    def test_dummy_fraction(self):
        records = generate_cds(400, seed=5, dummy_fraction=0.25)
        dummies = [r for r in records if r.is_dummy]
        assert 0.15 < len(dummies) / len(records) < 0.35
        assert all(t.startswith("Track ") for t in dummies[0].tracks)

    def test_element_rendering_order(self):
        disc = cd_to_element(generate_cds(1, seed=1)[0])
        child_tags = [c.tag for c in disc.children]
        assert child_tags[0] == "did"
        assert child_tags[-1] == "tracks"
        assert disc.get(GOLD_ATTRIBUTE) == "cd0"

    def test_schema_matches_table5(self):
        schema = cd_schema()
        did = schema.element_at("/freedb/disc/did")
        assert did.is_string and did.is_mandatory and did.is_singleton
        artist = schema.element_at("/freedb/disc/artist")
        assert artist.is_mandatory and not artist.is_singleton
        genre = schema.element_at("/freedb/disc/genre")
        assert not genre.is_mandatory and genre.is_singleton
        year = schema.element_at("/freedb/disc/year")
        assert year.data_type is DataType.DATE
        tracks = schema.element_at("/freedb/disc/tracks")
        assert not tracks.can_have_text
        track_title = schema.element_at("/freedb/disc/tracks/title")
        assert track_title.max_occurs is UNBOUNDED

    def test_large_corpus_planting(self):
        corpus = freedb_large_corpus(
            300, seed=11, exact_duplicate_pairs=5, fuzzy_duplicate_pairs=7
        )
        assert len(corpus.records) == 300
        assert len(corpus.duplicated_gids) == 12
        by_gid = {}
        for record in corpus.records:
            by_gid.setdefault(record.gid, []).append(record)
        exact = sum(
            1
            for gid in corpus.duplicated_gids
            if by_gid[gid][0].tracks == by_gid[gid][1].tracks
            and by_gid[gid][0].did == by_gid[gid][1].did
            and by_gid[gid][0].titles == by_gid[gid][1].titles
        )
        assert exact >= 5  # the planted exact pairs (fuzzy may match too)

    def test_large_corpus_too_small_raises(self):
        with pytest.raises(ValueError):
            freedb_large_corpus(10, exact_duplicate_pairs=5, fuzzy_duplicate_pairs=5)


class TestMovies:
    def test_deterministic(self):
        a = [m.title_en for m in generate_movies(10, seed=3)]
        b = [m.title_en for m in generate_movies(10, seed=3)]
        assert a == b

    def test_imdb_rendering(self):
        record = generate_movies(1, seed=3)[0]
        movie = imdb_element(record)
        assert movie.get(GOLD_ATTRIBUTE) == record.gid
        assert movie.find("title").text == record.title_en
        assert movie.find("year").text == str(record.year)
        names = [e.text for e in movie.find("people").iter() if e.tag == "name"]
        assert set(record.actors) <= set(names)

    def test_filmdienst_rendering(self):
        record = generate_movies(1, seed=3)[0]
        movie = filmdienst_element(record, random.Random(0), aka_probability=1.0,
                                   name_typo_rate=0.0, name_inversion_rate=0.0)
        assert movie.find("movie-title").find("title").text == record.title_de
        assert movie.find("aka-title").find("title").text == record.title_en
        premiere = movie.find("premiere").text
        assert premiere.endswith(str(record.year))
        assert "." in premiere  # German date format

    def test_aka_title_optional(self):
        record = generate_movies(1, seed=3)[0]
        movie = filmdienst_element(record, random.Random(0), aka_probability=0.0)
        assert movie.find("aka-title") is None

    def test_corpus_parallel_sources(self):
        corpus = movie_corpus(20, seed=13)
        assert len(corpus.imdb.root.children) == 20
        assert len(corpus.filmdienst.root.children) == 20
        imdb_gids = [m.get(GOLD_ATTRIBUTE) for m in corpus.imdb.root.children]
        fd_gids = [m.get(GOLD_ATTRIBUTE) for m in corpus.filmdienst.root.children]
        assert imdb_gids == fd_gids

    def test_mapping_covers_both_sources(self):
        mapping = movie_mapping()
        assert mapping.comparable(
            "/imdb/movie[1]/title", "/filmdienst/movie[2]/aka-title/title"
        )
        assert mapping.comparable(
            "/imdb/movie[1]/people/actors/actor[2]/name",
            "/filmdienst/movie[3]/people/person[1]/name",
        )
        assert not mapping.comparable(
            "/imdb/movie[1]/title", "/imdb/movie[1]/genre"
        )

    def test_schemas_parse(self):
        assert imdb_schema().element_at("/imdb/movie/title").is_string
        fd = filmdienst_schema()
        aka = fd.element_at("/filmdienst/movie/aka-title")
        assert not aka.is_mandatory and not aka.is_singleton
        premiere = fd.element_at("/filmdienst/movie/premiere")
        assert premiere.data_type is DataType.DATE
