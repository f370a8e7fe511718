"""XPath engine tests."""

import pytest

from repro.xmlkit import XPathSyntaxError, compile_path, join, parse, select


@pytest.fixture()
def doc():
    return parse(
        "<lib>"
        "<shelf n='1'>"
        "<book><title>Dune</title><year>1965</year></book>"
        "<book><title>Emma</title><year>1815</year></book>"
        "</shelf>"
        "<shelf n='2'>"
        "<book><title>Ilium</title></book>"
        "</shelf>"
        "<title>catalog</title>"
        "</lib>"
    )


class TestAbsolutePaths:
    def test_root_only(self, doc):
        assert [e.tag for e in select(doc, "/lib")] == ["lib"]

    def test_child_chain(self, doc):
        titles = select(doc, "/lib/shelf/book/title")
        assert [e.text for e in titles] == ["Dune", "Emma", "Ilium"]

    def test_wrong_root_matches_nothing(self, doc):
        assert select(doc, "/other/shelf") == []

    def test_positional_predicate(self, doc):
        assert select(doc, "/lib/shelf[2]/book/title")[0].text == "Ilium"
        assert select(doc, "/lib/shelf[1]/book[2]/title")[0].text == "Emma"

    def test_position_out_of_range(self, doc):
        assert select(doc, "/lib/shelf[5]") == []

    def test_descendant_shorthand(self, doc):
        # //title finds nested and direct titles in document order
        assert [e.text for e in select(doc, "//title")] == [
            "Dune", "Emma", "Ilium", "catalog",
        ]

    def test_descendant_mid_path(self, doc):
        assert [e.text for e in select(doc, "/lib//title")] == [
            "Dune", "Emma", "Ilium", "catalog",
        ]

    def test_wildcard(self, doc):
        assert [e.tag for e in select(doc, "/lib/*")] == [
            "shelf", "shelf", "title",
        ]

    def test_equality_predicate(self, doc):
        books = select(doc, "/lib/shelf/book[title='Emma']")
        assert len(books) == 1
        assert books[0].find("year").text == "1815"

    def test_xquery_variable_prefix(self, doc):
        assert [e.text for e in select(doc, "$doc/lib/shelf[2]/book/title")] == [
            "Ilium"
        ]


class TestRelativePaths:
    def test_dot(self, doc):
        shelf = select(doc, "/lib/shelf")[0]
        assert select(shelf, ".") == [shelf]

    def test_dot_slash_child(self, doc):
        shelf = select(doc, "/lib/shelf")[0]
        assert [e.text for e in select(shelf, "./book/title")] == ["Dune", "Emma"]

    def test_bare_child(self, doc):
        shelf = select(doc, "/lib/shelf")[0]
        assert [e.text for e in select(shelf, "book/title")] == ["Dune", "Emma"]

    def test_parent_step(self, doc):
        book = select(doc, "/lib/shelf/book")[0]
        assert select(book, "..")[0].tag == "shelf"
        assert select(book, "../..")[0].tag == "lib"

    def test_parent_then_child(self, doc):
        book = select(doc, "/lib/shelf[1]/book[1]")[0]
        siblings = select(book, "../book/title")
        assert [e.text for e in siblings] == ["Dune", "Emma"]

    def test_relative_descendant(self, doc):
        shelf = select(doc, "/lib/shelf")[1]
        assert [e.text for e in select(shelf, ".//title")] == ["Ilium"]

    def test_deduplication(self, doc):
        # Overlapping steps must not duplicate nodes.
        shelf = select(doc, "/lib/shelf")[0]
        results = select(shelf, "./book/../book/title")
        assert [e.text for e in results] == ["Dune", "Emma"]


MOVIES = (
    "<moviedoc>"
    "<movie><title>The Matrix</title><year>1999</year></movie>"
    "<movie><title>Matrix</title><year>1999</year></movie>"
    "<movie><title>Signs</title><year>2002</year></movie>"
    "</moviedoc>"
)


@pytest.fixture(scope="module")
def movies():
    return parse(MOVIES)


class TestMovieQueries:
    """The paths Section 3.3's candidate and description queries are
    built from, evaluated natively on a small movie document."""

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("/moviedoc/movie/title", ["The Matrix", "Matrix", "Signs"]),
            ("$doc/moviedoc/movie/title", ["The Matrix", "Matrix", "Signs"]),
            ("/moviedoc/movie[year='1999']/title", ["The Matrix", "Matrix"]),
            ("/moviedoc/movie[year='2002']/title", ["Signs"]),
            ("/moviedoc/movie[year='1998']/title", []),
            ("/moviedoc/movie[year='1999'][title='Matrix']/title", ["Matrix"]),
            ("/moviedoc/movie[title='Signs']/year", ["2002"]),
            ('/moviedoc/movie[title="The Matrix"]/year', ["1999"]),
            ("/moviedoc/movie[ year = '2002' ]/title", ["Signs"]),
            ("/moviedoc/movie[2]/title", ["Matrix"]),
            ("/moviedoc/movie[4]", []),
            ("/moviedoc/movie[3]/nope", []),
            # predicates apply in order: filter, then position
            ("/moviedoc/movie[year='1999'][2]/title", ["Matrix"]),
            ("/moviedoc/movie[2][year='2002']", []),
            ("/moviedoc/movie[1]/*", ["The Matrix", "1999"]),
            ("/moviedoc/*[2]/title", ["Matrix"]),
            ("/*/movie[3]/title", ["Signs"]),
            ("//year", ["1999", "1999", "2002"]),
            ("$doc//movie[title='Matrix']/year", ["1999"]),
            ("//movie[title='Signs']//year", ["2002"]),
            ("/moviedoc/movie/title/../year", ["1999", "1999", "2002"]),
        ],
    )
    def test_absolute(self, movies, expression, expected):
        assert [e.text for e in select(movies, expression)] == expected

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("./title", ["title"]),
            ("title", ["title"]),
            ("./*", ["title", "year"]),
            (".", ["movie"]),
            (".//year", ["year"]),
            ("..", ["moviedoc"]),
            ("../movie[3]/title", ["title"]),
            ("../movie[title='Matrix']/year", ["year"]),
        ],
    )
    def test_relative_to_a_candidate(self, movies, expression, expected):
        candidate = select(movies, "/moviedoc/movie[1]")[0]
        assert [e.tag for e in select(candidate, expression)] == expected

    def test_absolute_path_selects_its_element(self, movies):
        for element in movies.root.iter():
            assert select(movies, element.absolute_path()) == [element]
        second_title = select(movies, "/moviedoc/movie[2]/title")[0]
        assert second_title.absolute_path() == "/moviedoc/movie[2]/title"

    @pytest.mark.parametrize(
        "base, relative",
        [
            ("/moviedoc/movie", "./title"),
            ("/moviedoc/movie", "year"),
            ("/moviedoc/movie[2]", "./title"),
            ("/moviedoc/movie[3]", "."),
            ("/moviedoc/movie[1]/title", "../year"),
            ("/moviedoc/movie[1]/title", ".."),
        ],
    )
    def test_join_agrees_with_relative_selection(self, movies, base, relative):
        stepwise = [
            element
            for context in select(movies, base)
            for element in select(context, relative)
        ]
        assert select(movies, join(base, relative)) == stepwise


class TestCompile:
    def test_compiled_reusable(self, doc):
        path = compile_path("/lib/shelf/book")
        assert len(path.select(doc)) == 3
        assert len(path.select(doc)) == 3

    def test_str_round_trip(self):
        assert str(compile_path("/a/b[2]//c")) == "/a/b[2]//c"

    def test_absolute_flag(self):
        assert compile_path("/a/b").absolute
        assert not compile_path("./a/b").absolute
        assert not compile_path("a/b").absolute


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "expression",
        ["", "   ", "/a//", "/a/", "//", "/a[", "/a[]", "/a[x>1]", "$doc",
         # malformed steps and predicates
         "/a]", "/a[1", "/a[[1]]", "/a[ ]", "/a[-1]", "/a[1.5]", "/a[1]b",
         "/a[title=Emma]", "/a[title='Emma]", "/a[title=\"x']", "/a///b",
         "a//", "./", "/a/[1]", "/1a", "/a/-b", "/a/b c", "/a/b!", "$x",
         "/a/..[1]", "..[1]",
         # XQuery and full-XPath syntax outside the subset
         "/a/@id", "/a/text()", "/a | /b", "fn:data(/a)",
         "for $m in /a return $m"],
    )
    def test_rejected(self, expression):
        with pytest.raises(XPathSyntaxError):
            compile_path(expression)

    def test_predicate_on_dot_rejected(self):
        with pytest.raises(XPathSyntaxError):
            compile_path("./.[1]")


class TestJoin:
    def test_simple(self):
        assert join("/doc/movie", "./title") == "/doc/movie/title"

    def test_bare_relative(self):
        assert join("/doc/movie", "title") == "/doc/movie/title"

    def test_parent(self):
        assert join("/doc/movie", "..") == "/doc"
        assert join("/doc/movie", "../film") == "/doc/film"

    def test_absolute_wins(self):
        assert join("/doc/movie", "/other") == "/other"

    def test_self(self):
        assert join("/doc/movie", ".") == "/doc/movie"
