"""Tokenizer tests."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference import char_tokenizer
from repro.eval import build_dataset1, build_dataset3
from repro.xmlkit import XMLError, parse, serialize
from repro.xmlkit.tokens import Token, Tokenizer, TokenType, resolve_entities


def tokens_of(text):
    return list(Tokenizer(text).tokens())


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokens_of("<a>hi</a>")
        assert [t.type for t in tokens] == [
            TokenType.START_TAG,
            TokenType.TEXT,
            TokenType.END_TAG,
        ]
        assert tokens[0].value == "a"
        assert tokens[1].value == "hi"
        assert tokens[2].value == "a"

    def test_empty_tag(self):
        (token,) = tokens_of("<a/>")
        assert token.type is TokenType.EMPTY_TAG
        assert token.value == "a"

    def test_empty_tag_with_attributes(self):
        (token,) = tokens_of('<a x="1" y="2"/>')
        assert token.type is TokenType.EMPTY_TAG
        assert token.attributes == (("x", "1"), ("y", "2"))

    def test_attributes_single_and_double_quotes(self):
        (token,) = tokens_of("<a x='one' y=\"two\"/>")
        assert dict(token.attributes) == {"x": "one", "y": "two"}

    def test_attribute_with_spaces_around_equals(self):
        (token,) = tokens_of('<a x = "1"/>')
        assert token.attributes == (("x", "1"),)

    def test_nested_elements(self):
        tokens = tokens_of("<a><b/></a>")
        assert [t.type for t in tokens] == [
            TokenType.START_TAG,
            TokenType.EMPTY_TAG,
            TokenType.END_TAG,
        ]

    def test_tag_names_with_dash_dot_colon(self):
        for name in ("release-date", "xs:element", "a.b", "_private"):
            (token, *_rest) = tokens_of(f"<{name}></{name}>")
            assert token.value == name

    def test_offsets_recorded(self):
        tokens = tokens_of("<a>text</a>")
        assert tokens[0].offset == 0
        assert tokens[1].offset == 3
        assert tokens[2].offset == 7


class TestSpecialConstructs:
    def test_comment(self):
        tokens = tokens_of("<a><!-- hidden --></a>")
        assert tokens[1].type is TokenType.COMMENT
        assert tokens[1].value == " hidden "

    def test_cdata_becomes_text(self):
        tokens = tokens_of("<a><![CDATA[<raw> & stuff]]></a>")
        assert tokens[1].type is TokenType.TEXT
        assert tokens[1].value == "<raw> & stuff"

    def test_declaration(self):
        tokens = tokens_of('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert tokens[0].type is TokenType.DECLARATION
        assert dict(tokens[0].attributes) == {
            "version": "1.0",
            "encoding": "UTF-8",
        }

    def test_processing_instruction(self):
        tokens = tokens_of("<?php echo ?><a/>")
        assert tokens[0].type is TokenType.PI

    def test_doctype_skipped_as_token(self):
        tokens = tokens_of("<!DOCTYPE html><a/>")
        assert tokens[0].type is TokenType.DOCTYPE

    def test_xmlns_attribute(self):
        (token,) = tokens_of('<a xmlns:xs="http://x"/>')
        assert token.attributes == (("xmlns:xs", "http://x"),)


class TestEntities:
    def test_predefined_entities(self):
        assert resolve_entities("&lt;&gt;&amp;&apos;&quot;") == "<>&'\""

    def test_decimal_character_reference(self):
        assert resolve_entities("&#65;") == "A"

    def test_hex_character_reference(self):
        assert resolve_entities("&#x41;&#x20ac;") == "A€"

    def test_entities_in_text(self):
        tokens = tokens_of("<a>x &amp; y</a>")
        assert tokens[1].value == "x & y"

    def test_entities_in_attributes(self):
        (token,) = tokens_of('<a v="a&lt;b"/>')
        assert token.attributes == (("v", "a<b"),)

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLError, match="unknown entity"):
            resolve_entities("&nope;")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XMLError, match="unterminated entity"):
            resolve_entities("&amp")

    def test_bad_character_reference_raises(self):
        with pytest.raises(XMLError):
            resolve_entities("&#xzz;")


class TestMalformedInput:
    def test_unterminated_start_tag(self):
        with pytest.raises(XMLError, match="unterminated"):
            tokens_of("<a")

    def test_unterminated_comment(self):
        with pytest.raises(XMLError, match="unterminated"):
            tokens_of("<!-- never closed")

    def test_unterminated_cdata(self):
        with pytest.raises(XMLError, match="unterminated"):
            tokens_of("<![CDATA[oops")

    def test_malformed_attribute_unquoted(self):
        with pytest.raises(XMLError, match="quoted"):
            tokens_of("<a x=1/>")

    def test_attribute_missing_equals(self):
        with pytest.raises(XMLError, match="missing '='"):
            tokens_of('<a x "1"/>')

    def test_duplicate_attribute(self):
        with pytest.raises(XMLError, match="duplicate attribute"):
            tokens_of('<a x="1" x="2"/>')

    def test_bad_tag_name(self):
        with pytest.raises(XMLError, match="malformed tag name"):
            tokens_of('<1tag/>')

    def test_empty_tag_name(self):
        with pytest.raises(XMLError, match="empty tag name"):
            tokens_of("<>")


# ----------------------------------------------------------------------
# The regex scanner against the character-loop tokenizer it replaced
# ----------------------------------------------------------------------
def outcome(tokenizer, text):
    """The tokens produced and the error that ended them, comparably."""
    produced, error = [], None
    try:
        for token in tokenizer(text).tokens():
            produced.append(
                (token.type.name, token.value, token.attributes, token.offset)
            )
    except XMLError as exc:
        error = str(exc)
    return produced, error


def assert_same_outcome(text):
    try:
        expected = outcome(char_tokenizer.Tokenizer, text)
    except OverflowError:  # the oracle's one leak: TestCharacterReferenceRange
        return
    assert outcome(Tokenizer, text) == expected


#: Accepted input that only the general readers take, and shapes on the
#: border of the fast pattern.
ODD_BUT_ACCEPTED = [
    "< a></a>",
    "<a></ a >",
    "<a x='1'y='2'/>",
    "<a\n  x = '1'\n\ty\r=\r\"2\" />",
    "<a\x0b/>",
    "<a x='a &amp; b' y=\"&#65;&#x42;\"/>",
    "<a x=''/>",
    "<a x=\"it's\" y='say \"hi\"'/>",
    "<a x='<'/>",
    "<a.b-c:d _e='f'></a.b-c:d>",
    "<a>x &lt; y &amp;&amp; z &#x20ac;</a>",
    "<a>é ü</a>",
    "<?xml version='1.0' encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
    "<a><!-- c --><?pi body?><![CDATA[<raw> & ]]></a>\n",
    '<article mdate="2002-01-03" key="persons/Codd71a"><author>E. F. Codd</author>'
    '<ee type="oa">db/journals/cacm.html#a&amp;b</ee></article>',
]

#: input -> the message the character-loop tokenizer (rows above the
#: blank line) or the parser over its token offsets (rows below) raised.
MALFORMED = {
    "<a": "unterminated start tag at offset 0",
    "<a><b": "unterminated start tag at offset 3",
    "<a></a": "unterminated end tag at offset 3",
    "<a><!-- never closed": "unterminated '<!--' section at offset 3",
    "<a><![CDATA[oops": "unterminated '<![CDATA[' section at offset 3",
    "<a><?pi never closed": "unterminated processing instruction at offset 3",
    "<!DOCTYPE a [<!ELEMENT a ANY>": "unterminated DOCTYPE at offset 0",
    "<a x='1></a>": "unterminated value for attribute 'x' near offset 0",
    "<r><a x='>'/></r>": "unterminated value for attribute 'x' near offset 3",
    '<a x="1': "unterminated start tag at offset 0",
    "<a></a/>": "malformed end tag </a/> at offset 3",
    "<a></a x='1'>": "malformed end tag </a x='1'> at offset 3",
    "<a></1>": "malformed end tag </1> at offset 3",
    "</>": "malformed end tag </> at offset 0",
    "<a/ >": "malformed tag name 'a/' at offset 0",
    "<1tag/>": "malformed tag name '1tag' at offset 0",
    "<é/>": "malformed tag name 'é' at offset 0",
    "<>": "empty tag name at offset 0",
    '<a x="1" x="2"/>': "duplicate attribute 'x' near offset 0",
    "<a x='1' x='2' y='&nope;'/>": "duplicate attribute 'x' near offset 0",
    "<a x='&nope;' y='1' y='2'/>": "unknown entity &nope; at offset 0",
    "<a x=1/>": "attribute 'x' value must be quoted near offset 0",
    '<a x "1"/>': "attribute 'x' missing '=' near offset 0",
    '<a x="1" y/>': "attribute 'y' missing '=' near offset 0",
    '<a 1x="1"/>': "malformed attribute name '1x' near offset 0",
    "<?xml version=1?><a/>": "attribute 'version' value must be quoted near offset 0",
    "<a>&nope;</a>": "unknown entity &nope; at offset 3",
    "<a>&amp</a>": "unterminated entity reference at offset 3",
    "<a>&#xzz;</a>": "bad character reference &#xzz; at 3",
    "<a>&#x110000;</a>": "bad character reference &#x110000; at 3",
    "<a b='1' c='&#;'/>": "bad character reference &#; at 0",

    "junk<a/>": "text outside the root element at offset 0",
    "<a/>junk": "text outside the root element at offset 4",
    "<a/><b/>": "multiple root elements (second <b> at offset 4)",
    "<a><b></a></b>": "mismatched tags: <b> closed by </a> at offset 6",
    "<a><b>": "unclosed element <b> at end of input",
    "</a>": "unexpected closing tag </a> at offset 0",
    "<a><b/></a><?xml version='1.0'?>": "XML declaration must precede the root element",
    "": "document has no root element",
}
PARSER_LEVEL = list(MALFORMED).index("junk<a/>")


def corpus_texts():
    yield from (path.read_text(encoding="utf-8")
                for path in sorted(Path(__file__).parent.glob("golden/*.xml")))
    for dataset in (build_dataset1(base_count=12, seed=3), build_dataset3(count=150, seed=5)):
        yield dataset.mapping.to_xml()
        for source in dataset.sources:
            yield serialize(source.document)
            yield serialize(source.document, indent=None)


class TestAgainstCharacterLoopTokenizer:
    def test_same_tokens_on_fixtures_and_generated_corpora(self):
        texts = list(corpus_texts())
        assert len(texts) >= 8
        for text in texts:
            produced, error = outcome(Tokenizer, text)
            assert error is None and len(produced) > 10
            assert (produced, error) == outcome(char_tokenizer.Tokenizer, text)

    @pytest.mark.parametrize("text", ODD_BUT_ACCEPTED)
    def test_same_tokens_on_unusual_accepted_shapes(self, text):
        produced, error = outcome(Tokenizer, text)
        assert error is None
        assert (produced, error) == outcome(char_tokenizer.Tokenizer, text)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_same_error_text_and_offset(self, text):
        with pytest.raises(XMLError) as raised:
            parse(text)
        assert str(raised.value) == MALFORMED[text]
        assert_same_outcome(text)
        if list(MALFORMED).index(text) < PARSER_LEVEL:
            assert outcome(char_tokenizer.Tokenizer, text)[1] == MALFORMED[text]

    @given(st.text(alphabet="<>/=\"' \n\tab1:&;#x!-[]?CDAT", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_on_markup_noise(self, text):
        assert_same_outcome(text)

    @given(st.lists(st.sampled_from(
        ["<a>", "</a>", "<b/>", "<a x='1'>", '<b y="2" z=\'3\'/>', " ", "\n", "t",
         "&amp;", "&#65;", "&bad;", "<!--c-->", "<![CDATA[d]]>", "<?p q?>", "<a x='1' x='2'>",
         "<a x='&lt;'>", "</a >", "< a>", "<a/ >", "<", ">", "'", '"', "=", "/"]
    ), max_size=12).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_on_token_soup(self, text):
        assert_same_outcome(text)


class TestCharacterReferenceRange:
    """A reference no code point answers to is an XMLError, never a bare
    OverflowError (which the character-loop tokenizer let through)."""

    @pytest.mark.parametrize(
        "text, offset",
        [("<a>&#99999999999999999999;</a>", 3), ("<a b='&#99999999999999999999;'/>", 0),
         ("<a>&#x110000;</a>", 3), ("<a>&#-1;</a>", 3)],
    )
    def test_out_of_range_reference(self, text, offset):
        reference = text[text.index("&"): text.index(";") + 1]
        with pytest.raises(XMLError) as raised:
            parse(text)
        assert str(raised.value) == f"bad character reference {reference} at {offset}"
