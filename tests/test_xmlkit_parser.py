"""Parser and serializer tests, including round-trips."""

import pytest
from hypothesis import given, settings, strategies as st
from reference import xml_cold_path
from reference.xml_cold_path import tree_shape

from repro.eval import build_dataset1, build_dataset2, build_dataset3
from repro.xmlkit import Document, Element, XMLError, parse, serialize


class TestParse:
    def test_single_element(self):
        doc = parse("<a/>")
        assert isinstance(doc, Document)
        assert doc.root.tag == "a"
        assert doc.root.children == ()

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text == "hello"

    def test_nested_structure(self):
        doc = parse("<a><b><c>deep</c></b></a>")
        assert doc.root.find("b").find("c").text == "deep"

    def test_attributes(self):
        doc = parse('<a x="1"><b y="2"/></a>')
        assert doc.root.get("x") == "1"
        assert doc.root.find("b").get("y") == "2"

    def test_declaration_captured(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.declaration == {"version": "1.0", "encoding": "UTF-8"}

    def test_comments_dropped(self):
        doc = parse("<a><!-- note --><b/></a>")
        assert [c.tag for c in doc.root.children] == ["b"]

    def test_doctype_skipped(self):
        doc = parse("<!DOCTYPE a><a/>")
        assert doc.root.tag == "a"

    def test_mixed_content_preserved(self):
        doc = parse("<p>one <b>two</b> three</p>")
        content = doc.root.content
        assert content[0] == "one "
        assert isinstance(content[1], Element)
        assert content[2] == " three"
        assert doc.root.text_content() == "one two three"

    def test_pretty_printed_whitespace_dropped(self):
        doc = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>")
        assert [c.tag for c in doc.root.children] == ["b", "c"]
        assert doc.root.text == ""

    def test_whitespace_inside_leaf_preserved(self):
        doc = parse("<a>  padded  </a>")
        # .text strips, but the raw content keeps the padding
        assert doc.root.content == ("  padded  ",)
        assert doc.root.text == "padded"

    def test_cdata_text(self):
        doc = parse("<a><![CDATA[1 < 2 & 3]]></a>")
        assert doc.root.text == "1 < 2 & 3"

    def test_entity_text(self):
        doc = parse("<a>&lt;tag&gt;</a>")
        assert doc.root.text == "<tag>"

    def test_multiple_same_tag_children(self):
        doc = parse("<a><x>1</x><x>2</x><x>3</x></a>")
        assert [e.text for e in doc.root.find_all("x")] == ["1", "2", "3"]


def assert_same_tree_as_the_two_pass_parser(text):
    ours, theirs = parse(text), xml_cold_path.parse(text)
    assert tree_shape(ours.root) == tree_shape(theirs.root)
    assert ours.declaration == theirs.declaration
    # the child tuples drop_text() kept still describe the content
    assert [node.absolute_path() for node in ours.iter()] == [
        node.absolute_path() for node in theirs.iter()
    ]
    return ours


PIECES = st.sampled_from(
    [" ", "\n  ", "\t", "x", " y ", "<!-- c -->", "<![CDATA[ ]]>",
     "<![CDATA[z]]>", "&#32;", "&amp;", "<e/>", "<e></e>", "<e> </e>",
     '<e k="v">t</e>', "\u00a0", "\u2003"]
)


def fragments(depth):
    pieces = PIECES
    if depth:
        pieces = st.one_of(
            PIECES, fragments(depth - 1).map(lambda inner: f"<n>{inner}</n>")
        )
    return st.lists(pieces, max_size=5).map("".join)


class TestWhitespaceDecidedAtTheClosingTag:
    """Indentation is dropped when an element closes, with the answer
    the old second walk over the finished tree gave."""

    def test_mixed_content_keeps_its_spacing(self):
        doc = assert_same_tree_as_the_two_pass_parser(
            "<p> <b>x</b> and <i>y</i> </p>"
        )
        assert [item for item in doc.root.content if isinstance(item, str)] == [
            " ", " and ", " "
        ]

    def test_real_text_after_the_blanks_still_counts(self):
        doc = assert_same_tree_as_the_two_pass_parser("<p>\n <b/>\n tail</p>")
        assert doc.root.content[0] == "\n " and doc.root.content[2] == "\n tail"

    def test_text_split_by_a_comment(self):
        doc = assert_same_tree_as_the_two_pass_parser(
            "<a><t>Sig<!-- c -->ns</t>\n<u> <!-- c --> </u>\n</a>"
        )
        title, blank = doc.root.children
        assert title.content == ("Sig", "ns")
        assert blank.content == (" ", " ")  # a leaf keeps its text verbatim
        assert doc.root.content == (title, blank)

    def test_whitespace_only_leaf_and_empty_elements(self):
        doc = assert_same_tree_as_the_two_pass_parser(
            "<a>\n<b>  </b>\n<c/>\n<d></d>\n</a>"
        )
        b, c, d = doc.root.children
        assert b.content == ("  ",) and c.content == () and d.content == ()
        assert assert_same_tree_as_the_two_pass_parser("<a/>").root.content == ()

    def test_pretty_printed_nesting(self):
        doc = assert_same_tree_as_the_two_pass_parser(
            "<a>\n  <b>\n    <c>x</c>\n    <c>y</c>\n  </b>\n  <b>\n  </b>\n</a>"
        )
        first, second = doc.root.children
        assert doc.root.content == (first, second)
        assert [c.absolute_path() for c in first.children] == [
            "/a/b[1]/c[1]", "/a/b[1]/c[2]"
        ]
        assert second.content == ("\n  ",)  # no child element: a leaf

    def test_nothing_is_queried_by_the_parse_itself(self):
        """Leaves and unindented parents reach the caller with their
        caches unset; only an element that lost indentation has read
        (and kept) its child tuple."""
        doc = parse("<a><b>x</b><c>\n <d/>\n</c></a>")
        root = doc.root
        b, c = (item for item in root._content)
        assert root._children is None and b._children is None
        assert c._children is not None and c.content == c.children

    @given(fragments(3))
    @settings(max_examples=300, deadline=None)
    def test_generated_documents(self, inner):
        assert_same_tree_as_the_two_pass_parser(f"<r>{inner}</r>")

    @pytest.mark.parametrize("indent", ["  ", None])
    def test_datasets_1_to_3(self, indent):
        for dataset in (
            build_dataset1(base_count=25, seed=7),
            build_dataset2(count=25, seed=13),
            build_dataset3(count=120, seed=11),
        ):
            for source in dataset.sources:
                assert_same_tree_as_the_two_pass_parser(
                    serialize(source.document, indent=indent)
                )


class TestParseErrors:
    def test_mismatched_tags(self):
        with pytest.raises(XMLError, match="mismatched tags"):
            parse("<a><b></a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLError, match="unclosed element"):
            parse("<a><b>")

    def test_multiple_roots(self):
        with pytest.raises(XMLError, match="multiple root"):
            parse("<a/><b/>")

    def test_no_root(self):
        with pytest.raises(XMLError, match="no root"):
            parse("<!-- only a comment -->")

    def test_text_outside_root(self):
        with pytest.raises(XMLError, match="outside the root"):
            parse("<a/>trailing")

    def test_stray_end_tag(self):
        with pytest.raises(XMLError, match="unexpected closing"):
            parse("</a>")

    def test_late_declaration(self):
        with pytest.raises(XMLError, match="must precede"):
            parse("<a/><?xml version='1.0'?>")


class TestSerialize:
    def test_compact_round_trip(self):
        source = '<a x="1"><b>text</b><c/><d>x &amp; y</d></a>'
        doc = parse(source)
        again = parse(serialize(doc, indent=None))
        assert serialize(again, indent=None) == serialize(doc, indent=None)

    def test_pretty_round_trip_structure(self):
        doc = parse("<a><b>x</b><c><d>y</d></c></a>")
        reparsed = parse(serialize(doc))
        assert [e.tag for e in reparsed.root.iter()] == [
            e.tag for e in doc.root.iter()
        ]
        assert reparsed.root.find("c").find("d").text == "y"

    def test_escaping_in_text(self):
        doc = Document(Element("a", content=["a < b & c > d"]))
        assert "&lt;" in serialize(doc) and "&amp;" in serialize(doc)
        assert parse(serialize(doc)).root.text == "a < b & c > d"

    def test_escaping_in_attribute(self):
        doc = Document(Element("a", {"v": 'say "hi" & <bye>'}))
        assert parse(serialize(doc)).root.get("v") == 'say "hi" & <bye>'

    def test_empty_element_self_closes(self):
        assert "<empty/>" in serialize(Element("empty"))

    def test_mixed_content_round_trip(self):
        source = "<p>one <b>two</b> three</p>"
        doc = parse(source)
        assert parse(serialize(doc)).root.text_content() == "one two three"

    def test_declaration_emitted(self):
        out = serialize(parse('<?xml version="1.0"?><a/>'))
        assert out.startswith("<?xml")

    def test_declaration_suppressed(self):
        out = serialize(parse("<a/>"), declaration=False)
        assert not out.startswith("<?xml")

    def test_element_serialization_without_document(self):
        element = Element("x", content=["v"])
        assert serialize(element) == "<x>v</x>"


class TestBytesAndEncodings:
    """parse()/parse_file() accept bytes and path-likes (PR 5 satellite);
    decoding follows BOM -> declared encoding -> UTF-8."""

    def test_parse_bytes_utf8_default(self):
        doc = parse("<a>héllo</a>".encode("utf-8"))
        assert doc.root.text == "héllo"

    def test_parse_bytearray(self):
        assert parse(bytearray(b"<a>x</a>")).root.text == "x"

    def test_declared_encoding_honored(self):
        text = '<?xml version="1.0" encoding="ISO-8859-1"?><a>héllo</a>'
        doc = parse(text.encode("latin-1"))
        assert doc.root.text == "héllo"
        assert doc.declaration["encoding"] == "ISO-8859-1"

    def test_utf8_bom_stripped(self):
        import codecs

        doc = parse(codecs.BOM_UTF8 + "<a>héllo</a>".encode("utf-8"))
        assert doc.root.text == "héllo"

    def test_utf16_bom_wins_over_declaration(self):
        text = '<?xml version="1.0" encoding="UTF-16"?><a>héllo</a>'
        doc = parse(codecs_bom_utf16_le() + text.encode("utf-16-le"))
        assert doc.root.text == "héllo"

    def test_unknown_encoding_raises(self):
        data = b'<?xml version="1.0" encoding="no-such-enc"?><a/>'
        with pytest.raises(XMLError, match="unknown XML encoding"):
            parse(data)

    def test_undecodable_bytes_raise(self):
        with pytest.raises(XMLError, match="cannot decode"):
            parse(b"<a>\xff\xfe\xfa</a>")

    def test_crlf_input_normalized_like_text_mode(self, tmp_path):
        """XML 1.0 §2.11: byte/file input normalizes \\r\\n and lone
        \\r to \\n — the treatment text-mode reading used to apply, so
        Windows-authored corpora parse to identical trees."""
        from repro.xmlkit import parse_file

        assert parse(b"<a>line1\r\nline2\rline3</a>").root.text == (
            "line1\nline2\nline3"
        )
        path = tmp_path / "crlf.xml"
        path.write_bytes(b"<a>line1\r\nline2</a>")
        assert parse_file(path).root.text == "line1\nline2"

    def test_parse_file_accepts_pathlib_path(self, tmp_path):
        from repro.xmlkit import parse_file

        path = tmp_path / "doc.xml"
        path.write_text("<a><b>x</b></a>", encoding="utf-8")
        assert parse_file(path).root.find("b").text == "x"

    def test_parse_file_decodes_declared_encoding(self, tmp_path):
        from repro.xmlkit import parse_file

        path = tmp_path / "latin.xml"
        path.write_bytes(
            '<?xml version="1.0" encoding="latin-1"?><a>café</a>'.encode("latin-1")
        )
        assert parse_file(str(path)).root.text == "café"


def codecs_bom_utf16_le() -> bytes:
    import codecs

    return codecs.BOM_UTF16_LE
