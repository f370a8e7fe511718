"""Parser and serializer tests, including round-trips."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from reference import xml_cold_path
from reference.xml_cold_path import tree_shape

from repro.eval import build_dataset1, build_dataset2, build_dataset3
from repro.xmlkit import Document, Element, XMLError, parse, parse_file, serialize


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

    def test_references_in_text_and_attributes(self):
        doc = parse("<a v='a&lt;b&#65;'>&lt;&gt;&amp;&apos;&quot; &#65;&#x41;&#x20ac;</a>")
        assert doc.root.get("v") == "a<bA"
        assert doc.root.content == ("<>&'\" AA€",)

    def test_xmlns_attribute_kept_verbatim(self):
        doc = parse('<xs:a xmlns:xs="http://x"><xs:b/></xs:a>')
        assert doc.root.tag == "xs:a" and doc.root.children[0].tag == "xs:b"
        assert doc.root.attributes == {"xmlns:xs": "http://x"}

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

    def test_golden_files_and_mappings(self):
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted(Path(__file__).parent.glob("golden/*.xml"))]
        for dataset in (build_dataset1(base_count=12, seed=3),
                        build_dataset3(count=150, seed=5)):
            texts.append(dataset.mapping.to_xml())
        assert len(texts) >= 4
        for text in texts:
            assert_same_tree_as_the_two_pass_parser(text)

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
    """Expat words the error; the message ends with the line and column
    where it stopped."""

    def test_mismatched_tags(self):
        with pytest.raises(XMLError, match=r"^mismatched tag at line 3, column 2$"):
            parse("<a>\n  <b>\n</a></b>")

    def test_unclosed_element(self):
        with pytest.raises(XMLError, match=r"^no element found at line 2, column 3$"):
            parse("<a>\n<b>")

    def test_multiple_roots(self):
        with pytest.raises(XMLError, match=r"^junk after document element at line 2, "):
            parse("<a/>\n<b/>")

    def test_no_root(self):
        with pytest.raises(XMLError, match=r"^no element found at line 2, "):
            parse("<!-- only a comment -->\n")

    def test_text_outside_root(self):
        with pytest.raises(XMLError, match=r"^junk after document element at line 2, "):
            parse("<a/>\ntrailing")

    def test_stray_end_tag(self):
        with pytest.raises(XMLError, match=r"^not well-formed \(invalid token\) at line 2, "):
            parse("\n</a>")

    def test_late_declaration(self):
        with pytest.raises(XMLError, match=r" at line 2, column 0$"):
            parse("<a/>\n<?xml version='1.0'?>")

    def test_declaration_after_leading_whitespace(self):
        with pytest.raises(XMLError, match=r"^XML or text declaration not at start"):
            parse(" <?xml version='1.0'?><a/>")

    @pytest.mark.parametrize("text", ["<a>\x00</a>", "<a>\x0c</a>"])
    def test_c0_control_characters_in_text(self, text):
        with pytest.raises(XMLError, match=r" at line 1, column 3$"):
            parse(text)


#: Input the tokenizer expat replaced read the way XML 1.0 does.
STILL_ACCEPTED = [
    "<a\n  x = '1'\n\ty\r=\r\"2\" />",
    "<a x='a &amp; b' y=\"&#65;&#x42;\"/>",
    "<a x=''/>",
    "<a x=\"it's\" y='say \"hi\"'/>",
    "<a.b-c:d _e='f'></a.b-c:d>",
    "<a>x &lt; y &amp;&amp; z &#x20ac;</a>",
    "<a>é ü</a>",
    "<?xml version='1.0' encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
    "<a><!-- c --><?pi body?><![CDATA[<raw> & ]]></a>\n",
    '<article mdate="2002-01-03" key="persons/Codd71a"><author>E. F. Codd</author>'
    '<ee type="oa">db/journals/cacm.html#a&amp;b</ee></article>',
]

#: Input that tokenizer accepted and XML 1.0 does not: a space after
#: ``<`` or ``</``, no space between attributes, a vertical tab in a
#: tag, a literal ``<`` in an attribute value.
NOW_REJECTED = ["< a></a>", "<a></ a >", "<a x='1'y='2'/>", "<a\x0b/>", "<a x='<'/>"]

#: Input that tokenizer rejected and XML 1.0 allows: ``>`` in an
#: attribute value, a non-ASCII name.
NOW_ACCEPTED = {"<r><a x='>'/></r>": ("r", (), (("a", (("x", ">"),), ()),)),
                "<é/>": ("é", (), ())}

MALFORMED = [
    "<a", "<a><b", "<a></a", "<a><!-- never closed", "<a><![CDATA[oops",
    "<a><?pi never closed", "<!DOCTYPE a [<!ELEMENT a ANY>", "<a x='1></a>",
    '<a x="1', "<a></a/>", "<a></a x='1'>", "<a></1>", "</>", "<a/ >",
    "<1tag/>", "<>", '<a x="1" x="2"/>', "<a x='1' x='2' y='&nope;'/>",
    "<a x='&nope;' y='1' y='2'/>", "<a x=1/>", '<a x "1"/>', '<a x="1" y/>',
    '<a 1x="1"/>', "<?xml version=1?><a/>", "<a>&nope;</a>", "<a>&amp</a>",
    "<a>&#xzz;</a>", "<a>&#x110000;</a>", "<a b='1' c='&#;'/>",
    "junk<a/>", "<a/>junk", "<a/><b/>", "<a><b></a></b>", "<a><b>", "</a>",
    "<a><b/></a><?xml version='1.0'?>", "",
]


def oracle_shape(text):
    """The oracle's tree, attribute values normalized as XML 1.0
    section 3.3.3 says (the oracle kept a literal tab or newline), or
    ``None`` where the oracle rejects the text."""
    try:
        root = xml_cold_path.parse(text).root
    except (XMLError, OverflowError):  # OverflowError: the oracle's one leak
        return None
    for node in root.iter():
        node.attributes = {
            name: value.translate({9: " ", 10: " ", 13: " "})
            for name, value in node.attributes.items()
        }
    return tree_shape(root)


def assert_xml_error_or_oracle_tree(text):
    """``parse`` answers a Document or an XMLError, nothing else; where
    the oracle accepts too, both trees are the same."""
    try:
        ours = tree_shape(parse(text).root)
    except XMLError as exc:
        assert re.search(r" at line \d+, column \d+$", str(exc)), exc
        return
    theirs = oracle_shape(text)
    assert theirs is None or ours == theirs


class TestAgainstTheCharacterLoopTokenizer:
    """What the tokenizer's own tests checked, at the parse level."""

    @pytest.mark.parametrize("text", STILL_ACCEPTED)
    def test_unusual_accepted_shapes_build_the_oracle_tree(self, text):
        assert tree_shape(parse(text).root) == oracle_shape(text)

    @pytest.mark.parametrize("text", NOW_REJECTED)
    def test_shapes_xml_forbids_are_rejected(self, text):
        with pytest.raises(XMLError, match=r"^not well-formed \(invalid token\) at line 1, "):
            parse(text)
        assert oracle_shape(text) is not None

    @pytest.mark.parametrize("text", NOW_ACCEPTED)
    def test_shapes_xml_allows_are_accepted(self, text):
        assert tree_shape(parse(text).root) == NOW_ACCEPTED[text]
        assert oracle_shape(text) is None

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_input_names_a_line(self, text):
        with pytest.raises(XMLError, match=r" at line 1, column \d+$"):
            parse(text)
        assert oracle_shape(text) is None

    @given(st.text(alphabet="<>/=\"' \n\tab1:&;#x!-[]?CDAT", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_markup_noise(self, text):
        assert_xml_error_or_oracle_tree(text)

    @given(st.lists(st.sampled_from(
        ["<a>", "</a>", "<b/>", "<a x='1'>", '<b y="2" z=\'3\'/>', " ", "\n", "t",
         "&amp;", "&#65;", "&bad;", "<!--c-->", "<![CDATA[d]]>", "<?p q?>", "<a x='1' x='2'>",
         "<a x='&lt;'>", "</a >", "< a>", "<a/ >", "<", ">", "'", '"', "=", "/"]
    ), max_size=12).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_token_soup(self, text):
        assert_xml_error_or_oracle_tree(text)


class TestCharacterReferenceRange:
    """A reference no code point answers to is an XMLError, never a bare
    OverflowError (which the character-loop tokenizer let through)."""

    @pytest.mark.parametrize(
        "text, column",
        [("<a>&#99999999999999999999;</a>", 3), ("<a b='&#99999999999999999999;'/>", 6),
         ("<a>&#x110000;</a>", 3), ("<a>\n&#x0;</a>", 0)],
    )
    def test_out_of_range_reference(self, text, column):
        line = text.count("\n") + 1
        with pytest.raises(XMLError) as raised:
            parse(text)
        assert str(raised.value) == (
            f"reference to invalid character number at line {line}, column {column}"
        )

    def test_negative_reference(self):
        with pytest.raises(XMLError, match=r"^not well-formed \(invalid token\) at line 1"):
            parse("<a>&#-1;</a>")


class TestTextNodes:
    def test_a_long_text_node_stays_one_node(self):
        """Expat hands text over in bounded runs; the parser joins them."""
        text = "line of text\n" * 5000
        doc = parse(f"<a>{text}<b/>{text}</a>")
        assert doc.root.content[0] == text and doc.root.content[2] == text

    def test_boundaries_are_comments_pis_and_cdata(self):
        doc = parse("<a>x<!--c-->y<?p q?>z<![CDATA[w]]>v&amp;u&#65;<![CDATA[]]></a>")
        assert doc.root.content == ("x", "y", "z", "w", "v&uA")

    def test_internal_entities_expand(self):
        doc = parse('<!DOCTYPE a [<!ENTITY uuml "ü"><!ENTITY e "<b>&uuml;</b>">]>'
                    "<a>H&uuml;tter &e;</a>")
        assert tree_shape(doc.root) == ("a", (), ("Hütter ", ("b", (), ("ü",))))

    def test_dtd_attribute_defaults_are_not_added(self):
        doc = parse('<!DOCTYPE a [<!ATTLIST a x CDATA "d">]><a/>')
        assert doc.root.attributes == {}

    def test_declaration_fields_in_order(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8" standalone="no"?><a/>')
        assert list(doc.declaration.items()) == [
            ("version", "1.0"), ("encoding", "UTF-8"), ("standalone", "no")
        ]

    def test_whitespace_in_attribute_values_is_normalized(self):
        assert parse("<a x='1\t2\n3'/>").root.get("x") == "1 2 3"
        assert parse("<a x='1&#9;2&#10;3'/>").root.get("x") == "1\t2\n3"


class TestHostileInput:
    """Nothing outside the document is read, expansion is bounded, and
    no input makes ``parse`` raise anything but XMLError."""

    def test_external_entity_is_refused_unread(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("SENTINEL-4f1c", encoding="utf-8")
        text = (f'<!DOCTYPE a [<!ENTITY e SYSTEM "{secret.as_uri()}">]>'
                "<a>&e;</a>")
        with pytest.raises(XMLError) as raised:
            parse(text)
        assert "SENTINEL" not in str(raised.value)
        assert str(raised.value).startswith(
            "error in processing external entity reference at line 1, "
        )

    def test_entity_from_an_unread_external_subset_is_refused(self):
        with pytest.raises(XMLError, match=r"^undefined entity &e; at line 2, "):
            parse('<!DOCTYPE a SYSTEM "a.dtd">\n<a>&e;</a>')

    def test_billion_laughs_is_refused(self):
        with pytest.raises(XMLError, match=r"^limit on input amplification factor"):
            parse(BILLION_LAUGHS)

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_a_document_or_an_xml_error(self, text):
        try:
            assert isinstance(parse(text), Document)
        except XMLError:
            pass

    def test_a_lone_surrogate_is_an_xml_error(self):
        with pytest.raises(XMLError, match=r"^surrogates not allowed at line 2, column 3$"):
            parse("<a>\n<b>\ud800</b></a>")


def billion_laughs(levels: int) -> str:
    entities = ['<!ENTITY lol0 "lol">'] + [
        f'<!ENTITY lol{level} "{f"&lol{level - 1};" * 10}">'
        for level in range(1, levels + 1)
    ]
    return f'<!DOCTYPE r [{"".join(entities)}]><r>&lol{levels};</r>'


#: Ten to the eighth expansions of a three-byte string.
BILLION_LAUGHS = billion_laughs(8)

FIXTURES = Path(__file__).with_name("fixtures")


class TestDblpSlice:
    """A real-shaped DBLP record set: CRLF line ends, a DTD of named
    characters, multi-valued authors, an ORCID attribute."""

    @pytest.fixture(scope="class")
    def bib(self):
        document = parse_file(FIXTURES / "dblp_slice.xml")
        assert document.root.tag == "dblp"
        return document.root.find("bib")

    def test_four_records_of_two_kinds(self, bib):
        assert [record.tag for record in bib.children] == [
            "article", "inproceedings", "article", "article"
        ]

    def test_multi_valued_authors_and_orcid(self, bib):
        first = bib.children[0]
        authors = first.find_all("author")
        assert [author.text for author in authors] == [
            "Daniel Ulrich Schmitt", "Daniel Kocher", "Nikolaus Augsten",
            "Willi Mann", "Alexander Miller",
        ]
        assert authors[0].attributes == {"orcid": "0009-0005-7656-7526"}
        assert authors[1].attributes == {}

    def test_named_characters_and_disambiguation_numbers(self, bib):
        authors = [author.text for author in bib.children[1].find_all("author")]
        assert authors[0] == "Thomas Hütter"
        assert "Chen Li 0001" in authors
        assert bib.children[3].find("author").text == "Christine Schäler"

    def test_line_ends_are_normalized(self, bib):
        assert "\r" not in serialize(bib)


class TestParseFile:
    def test_an_error_names_the_file(self, tmp_path):
        path = tmp_path / "movies.xml"
        path.write_text("<moviedoc><movie></moviedoc>", encoding="utf-8")
        with pytest.raises(XMLError) as raised:
            parse_file(path)
        assert str(raised.value) == f"{path}: mismatched tag at line 1, column 19"


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

    def test_carriage_returns_and_attribute_whitespace_survive(self):
        """A parser normalizes these characters' literal forms, so the
        serializer writes them as character references."""
        doc = Document(Element("a", {"v": "1\t2\n3\r4"}, ["x\ry\tz\n"]))
        again = parse(serialize(doc, indent=None)).root
        assert again.attributes == {"v": "1\t2\n3\r4"}
        assert again.content == ("x\ry\tz\n",)

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
