"""Type mapping tests."""

import pytest

from repro.framework import MappingError, TypeMapping, mapping_from_xml


class TestTypeMapping:
    def test_add_and_lookup(self):
        mapping = TypeMapping().add("MOVIE", ["/db/movie", "/db/film"])
        assert mapping.xpaths_of("MOVIE") == {"/db/movie", "/db/film"}
        assert mapping.type_of("/db/film") == "MOVIE"

    def test_add_single_string(self):
        mapping = TypeMapping().add("X", "/a/b")
        assert mapping.xpaths_of("X") == {"/a/b"}

    def test_chaining(self):
        mapping = TypeMapping().add("A", "/a").add("B", "/b")
        assert len(mapping) == 2
        assert "A" in mapping and "B" in mapping

    def test_unknown_type_raises(self):
        with pytest.raises(MappingError):
            TypeMapping().xpaths_of("NOPE")

    def test_conflicting_assignment_rejected(self):
        mapping = TypeMapping().add("A", "/x")
        with pytest.raises(MappingError, match="already mapped"):
            mapping.add("B", "/x")

    def test_re_adding_same_type_ok(self):
        mapping = TypeMapping().add("A", "/x").add("A", ["/x", "/y"])
        assert mapping.xpaths_of("A") == {"/x", "/y"}

    def test_positional_paths_normalized(self):
        mapping = TypeMapping().add("T", "/db/movie[3]/title")
        assert mapping.type_of("/db/movie[7]/title") == "T"

    def test_xquery_variable_normalized(self):
        mapping = TypeMapping().add("T", "$doc/moviedoc/movie")
        assert mapping.type_of("/moviedoc/movie") == "T"

    def test_relative_path_rejected(self):
        with pytest.raises(MappingError, match="absolute"):
            TypeMapping().add("T", "./title")

    def test_empty_type_name_rejected(self):
        with pytest.raises(MappingError):
            TypeMapping().add("", "/x")

    def test_comparison_key_mapped(self):
        mapping = TypeMapping().add("TITLE", ["/db/movie/title", "/db/film/name"])
        assert mapping.comparison_key("/db/movie[2]/title") == "TITLE"
        assert mapping.comparison_key("/db/film[9]/name") == "TITLE"

    def test_comparison_key_unmapped_falls_back_to_path(self):
        mapping = TypeMapping()
        assert mapping.comparison_key("/db/x[1]/y") == "/db/x/y"

    def test_comparable(self):
        mapping = TypeMapping().add("TITLE", ["/a/t", "/b/t"])
        assert mapping.comparable("/a/t", "/b/t")
        assert mapping.comparable("/c/z[1]", "/c/z[2]")  # same generic path
        assert not mapping.comparable("/a/t", "/c/z")

    def test_cache_invalidated_on_add(self):
        mapping = TypeMapping()
        assert mapping.comparison_key("/a/t") == "/a/t"
        mapping.add("TITLE", "/a/t")
        assert mapping.comparison_key("/a/t[1]") == "TITLE"
        assert mapping.comparison_key("/a/t") == "TITLE"

    def test_iteration(self):
        mapping = TypeMapping().add("A", "/a").add("B", "/b")
        assert dict(mapping) == {"A": {"/a"}, "B": {"/b"}}


class TestXMLRoundTrip:
    def test_round_trip(self):
        mapping = (
            TypeMapping()
            .add("MOVIE", ["/db/movie", "/db/film"])
            .add("TITLE", "/db/movie/title")
        )
        again = mapping_from_xml(mapping.to_xml())
        assert again.xpaths_of("MOVIE") == {"/db/movie", "/db/film"}
        assert again.type_of("/db/movie/title") == "TITLE"

    def test_parse_errors(self):
        with pytest.raises(MappingError):
            mapping_from_xml("<wrong/>")
        with pytest.raises(MappingError, match="name attribute"):
            mapping_from_xml("<mapping><type><xpath>/x</xpath></type></mapping>")
        with pytest.raises(MappingError, match="no xpaths"):
            mapping_from_xml('<mapping><type name="T"/></mapping>')
