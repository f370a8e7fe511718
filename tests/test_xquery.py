"""XQuery-subset interpreter tests."""

import os
import subprocess
import sys

import pytest

import repro

from repro.framework import (
    CandidateDefinition,
    DescriptionDefinition,
    candidate_xquery,
    description_xquery,
    generate_ods,
    od_generation_xquery,
)
from repro.xmlkit import XQuery, XQueryError, execute_xquery, parse, serialize


@pytest.fixture()
def doc():
    return parse(
        "<moviedoc>"
        "<movie><title>The Matrix</title><year>1999</year></movie>"
        "<movie><title>Matrix</title><year>1999</year></movie>"
        "<movie><title>Signs</title><year>2002</year></movie>"
        "</moviedoc>"
    )


class TestBasics:
    def test_for_return_path(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie return $m/title", doc
        )
        assert [e.text for e in result] == ["The Matrix", "Matrix", "Signs"]

    def test_doc_variable(self, doc):
        result = execute_xquery(
            "for $m in $doc/moviedoc/movie return $m/title", doc
        )
        assert len(result) == 3

    def test_where_equality(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie where $m/year = '1999' "
            "return fn:string($m/title)",
            doc,
        )
        assert result == ["The Matrix", "Matrix"]

    def test_where_numeric_comparison(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie where $m/year > 2000 "
            "return fn:string($m/title)",
            doc,
        )
        assert result == ["Signs"]

    def test_where_and_or(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie "
            "where $m/year = '1999' and $m/title = 'Matrix' "
            "return $m/title",
            doc,
        )
        assert [e.text for e in result] == ["Matrix"]
        result = execute_xquery(
            "for $m in /moviedoc/movie "
            "where $m/title = 'Signs' or $m/title = 'Matrix' "
            "return $m/title",
            doc,
        )
        assert len(result) == 2

    def test_let_binding(self, doc):
        result = execute_xquery(
            "let $ms := /moviedoc/movie return fn:count($ms)", doc
        )
        assert result == [3.0]

    def test_nested_for(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie "
            "for $t in $m/title return fn:string($t)",
            doc,
        )
        assert len(result) == 3

    def test_sequence_expression(self, doc):
        result = execute_xquery(
            "for $m in /moviedoc/movie[1] return ($m/title, $m/year)", doc
        )
        assert [e.tag for e in result] == ["title", "year"]

    def test_string_functions(self, doc):
        assert execute_xquery(
            "let $m := /moviedoc/movie[3] return fn:concat($m/title, '!')",
            doc,
        ) == ["Signs!"]
        assert execute_xquery(
            "let $m := /moviedoc/movie[3] return fn:exists($m/nope)", doc
        ) == [False]

    def test_fn_path(self, doc):
        result = execute_xquery(
            "for $t in /moviedoc/movie[2]/title return fn:path($t)", doc
        )
        assert result == ["/moviedoc/movie[2]/title"]

    def test_fn_data(self, doc):
        result = execute_xquery(
            "let $ts := /moviedoc/movie/title return fn:data($ts)", doc
        )
        assert result == ["The Matrix", "Matrix", "Signs"]


class TestConstructors:
    def test_simple_constructor(self, doc):
        (element,) = execute_xquery(
            "for $m in /moviedoc/movie[1] return <wrap>{$m/title}</wrap>", doc
        )
        assert serialize(element, indent=None) == (
            "<wrap><title>The Matrix</title></wrap>"
        )

    def test_attribute_expression(self, doc):
        (element,) = execute_xquery(
            'for $m in /moviedoc/movie[3] return <hit y="{$m/year}"/>', doc
        )
        assert element.get("y") == "2002"

    def test_literal_attribute(self, doc):
        (element,) = execute_xquery('let $x := 1 return <e kind="fixed"/>', doc)
        assert element.get("kind") == "fixed"

    def test_comma_sequence_in_braces(self, doc):
        (element,) = execute_xquery(
            "for $m in /moviedoc/movie[2] "
            "return <d>{$m/title, $m/year}</d>",
            doc,
        )
        assert [c.tag for c in element.children] == ["title", "year"]

    def test_nested_flwor_in_constructor(self, doc):
        (element,) = execute_xquery(
            "let $x := 1 return <all>{"
            "for $m in /moviedoc/movie return <t>{fn:string($m/title)}</t>"
            "}</all>",
            doc,
        )
        assert [c.text for c in element.children] == [
            "The Matrix", "Matrix", "Signs",
        ]

    def test_constructed_elements_are_copies(self, doc):
        execute_xquery(
            "for $m in /moviedoc/movie return <w>{$m/title}</w>", doc
        )
        # source document unharmed
        assert doc.root.find("movie").find("title").parent is not None


class TestFrameworkQueriesExecute:
    """The queries the framework renders are executable and agree with
    the native XPath evaluation path."""

    def test_candidate_query(self, doc):
        definition = CandidateDefinition("MOVIE", ("/moviedoc/movie",))
        rendered = candidate_xquery(definition)
        via_xquery = execute_xquery(rendered, doc)
        via_native = definition.select(doc)
        assert [id(e) for e in via_xquery] == [id(e) for e in via_native]

    def test_description_query(self, doc):
        candidate = CandidateDefinition("MOVIE", ("/moviedoc/movie",))
        description = DescriptionDefinition(("./title", "./year"))
        rendered = description_xquery(candidate, description)
        wrapped = execute_xquery(rendered, doc)
        assert len(wrapped) == 3
        native = [description.select(c) for c in candidate.select(doc)]
        for wrapper, elements in zip(wrapped, native):
            assert [c.tag for c in wrapper.children] == [e.tag for e in elements]
            assert [c.text for c in wrapper.children] == [e.text for e in elements]

    def test_od_generation_query(self, doc):
        candidate = CandidateDefinition("MOVIE", ("/moviedoc/movie",))
        description = DescriptionDefinition(("./title", "./year"))
        rendered = od_generation_xquery(candidate, description)
        od_elements = execute_xquery(rendered, doc)
        native_ods = generate_ods(description, candidate.select(doc))
        assert len(od_elements) == len(native_ods)
        for od_element, od in zip(od_elements, native_ods):
            tuples = [
                (odt.get("name"), odt.text)
                for odt in od_element.find_all("odt")
            ]
            assert tuples == [(t.name, t.value) for t in od.tuples]


class TestErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "",
            "for $m in",
            "return 1",
            "for $m in /a return",
            "let $x = 1 return $x",          # := required
            "for $m in /a return <t>{$m}",   # unterminated constructor
            "for $m in /a return <t>{$m}</u>",
            "fn:nope(1)",
            "for $m in /a where $m ~ 1 return $m",
        ],
    )
    def test_rejected(self, query, doc):
        with pytest.raises(XQueryError):
            execute_xquery(query, doc)

    def test_unbound_variable(self, doc):
        with pytest.raises(XQueryError, match="unbound"):
            execute_xquery("for $m in $nope/x return $m", doc)

    def test_absolute_path_without_context(self):
        with pytest.raises(XQueryError, match="context document"):
            XQuery("for $m in /a/b return $m").evaluate()

    def test_extra_variables(self, doc):
        result = execute_xquery(
            "for $m in $items return fn:string($m)",
            doc,
            items=["a", "b"],
        )
        assert result == ["a", "b"]


class TestLazyExport:
    """No detection path runs the XQuery engine, so none imports it."""

    @staticmethod
    def python(code):
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_importing_the_cli_leaves_the_engine_unloaded(self):
        assert self.python(
            "import sys, repro.cli; print('repro.xmlkit.xquery' in sys.modules)"
        ) == "False"

    def test_public_names_still_import(self):
        assert self.python(
            "from repro.xmlkit import XQuery, XQueryError, execute_xquery\n"
            "import repro.xmlkit as kit\n"
            "print(XQuery.__module__, issubclass(XQueryError, Exception),\n"
            "      execute_xquery.__name__, kit.XQuery is XQuery)"
        ) == "repro.xmlkit.xquery True execute True"

    def test_unknown_name_is_an_attribute_error(self):
        import repro.xmlkit as kit

        with pytest.raises(AttributeError, match="no attribute 'XSLT'"):
            kit.XSLT
