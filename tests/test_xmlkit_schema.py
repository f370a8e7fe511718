"""Schema model, XSD parsing, and schema inference tests."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st
from reference import xml_cold_path

from repro.datagen import PAPER_EXAMPLE_XSD, paper_example_document
from repro.eval import build_dataset1, build_dataset2, build_dataset3
from repro.xmlkit import (
    ContentModel,
    DataType,
    Element,
    Schema,
    SchemaElement,
    UNBOUNDED,
    XMLError,
    infer_schema,
    parse,
    parse_file,
    parse_schema,
    sniff_data_type,
)


@pytest.fixture()
def disc_schema():
    root = SchemaElement("disc", content_model=ContentModel.COMPLEX,
                         data_type=DataType.NONE)
    root.add_child(SchemaElement("did"))
    root.add_child(SchemaElement("artist", max_occurs=UNBOUNDED))
    root.add_child(SchemaElement("genre", min_occurs=0))
    tracks = root.add_child(
        SchemaElement("tracks", content_model=ContentModel.COMPLEX,
                      data_type=DataType.NONE)
    )
    tracks.add_child(SchemaElement("title", max_occurs=UNBOUNDED))
    return Schema(root)


class TestSchemaElement:
    def test_mandatory_flag(self):
        assert SchemaElement("a", min_occurs=1).is_mandatory
        assert not SchemaElement("a", min_occurs=0).is_mandatory
        assert SchemaElement("a", min_occurs=0, is_key=True).is_mandatory
        assert not SchemaElement("a", min_occurs=1, nillable=True).is_mandatory

    def test_singleton_flag(self):
        assert SchemaElement("a", max_occurs=1).is_singleton
        assert not SchemaElement("a", max_occurs=UNBOUNDED).is_singleton
        assert not SchemaElement("a", max_occurs=3).is_singleton

    def test_can_have_text(self):
        assert SchemaElement("a", content_model=ContentModel.SIMPLE).can_have_text
        assert SchemaElement("a", content_model=ContentModel.MIXED).can_have_text
        assert not SchemaElement(
            "a", content_model=ContentModel.COMPLEX
        ).can_have_text
        assert not SchemaElement(
            "a", content_model=ContentModel.EMPTY
        ).can_have_text

    def test_is_string(self):
        assert SchemaElement("a", data_type=DataType.STRING).is_string
        assert not SchemaElement("a", data_type=DataType.DATE).is_string

    def test_add_child_upgrades_simple_to_complex(self):
        parent = SchemaElement("p")
        assert parent.content_model is ContentModel.SIMPLE
        parent.add_child(SchemaElement("c"))
        assert parent.content_model is ContentModel.COMPLEX
        assert parent.data_type is DataType.NONE

    def test_duplicate_child_rejected(self):
        parent = SchemaElement("p")
        parent.add_child(SchemaElement("c"))
        with pytest.raises(XMLError, match="duplicate child"):
            parent.add_child(SchemaElement("c"))

    def test_bad_occurs_rejected(self):
        with pytest.raises(XMLError):
            SchemaElement("a", min_occurs=-1)
        with pytest.raises(XMLError):
            SchemaElement("a", min_occurs=2, max_occurs=1)

    def test_path(self, disc_schema):
        title = disc_schema.element_at("/disc/tracks/title")
        assert title.path() == "/disc/tracks/title"
        assert title.depth == 2

    def test_descendants_at_depth(self, disc_schema):
        level1 = disc_schema.root.descendants_at_depth(1)
        assert [e.name for e in level1] == ["did", "artist", "genre", "tracks"]
        level2 = disc_schema.root.descendants_at_depth(2)
        assert [e.name for e in level2] == ["title"]

    def test_breadth_first(self, disc_schema):
        order = [e.name for e in disc_schema.root.breadth_first()]
        assert order == ["did", "artist", "genre", "tracks", "title"]

    def test_ancestors(self, disc_schema):
        title = disc_schema.element_at("/disc/tracks/title")
        assert [a.name for a in title.ancestors()] == ["tracks", "disc"]


class TestSchemaLookup:
    def test_element_at(self, disc_schema):
        assert disc_schema.element_at("/disc/did").name == "did"

    def test_element_at_missing_raises(self, disc_schema):
        with pytest.raises(XMLError, match="no schema element"):
            disc_schema.element_at("/disc/nope")

    def test_get_and_contains(self, disc_schema):
        assert disc_schema.get("/disc/genre") is not None
        assert "/disc/genre" in disc_schema
        assert "/disc/nope" not in disc_schema

    def test_paths(self, disc_schema):
        assert set(disc_schema.paths()) == {
            "/disc", "/disc/did", "/disc/artist", "/disc/genre",
            "/disc/tracks", "/disc/tracks/title",
        }


class TestXSDParsing:
    def test_paper_example_schema(self):
        schema = parse_schema(PAPER_EXAMPLE_XSD)
        movie = schema.element_at("/moviedoc/movie")
        assert movie.max_occurs is UNBOUNDED
        assert movie.content_model is ContentModel.COMPLEX
        title = schema.element_at("/moviedoc/movie/title")
        assert title.data_type is DataType.STRING
        assert title.is_mandatory and title.is_singleton
        year = schema.element_at("/moviedoc/movie/year")
        assert year.data_type is DataType.DATE
        actor = schema.element_at("/moviedoc/movie/actor")
        assert not actor.is_mandatory and not actor.is_singleton
        role = schema.element_at("/moviedoc/movie/actor/role")
        assert not role.is_mandatory

    def test_named_complex_type(self):
        schema = parse_schema(
            """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:complexType name="PersonType">
              <xs:sequence><xs:element name="name" type="xs:string"/></xs:sequence>
            </xs:complexType>
            <xs:element name="root">
              <xs:complexType><xs:sequence>
                <xs:element name="person" type="PersonType" maxOccurs="unbounded"/>
              </xs:sequence></xs:complexType>
            </xs:element>
            </xs:schema>"""
        )
        assert schema.element_at("/root/person/name").is_string

    def test_mixed_content(self):
        schema = parse_schema(
            """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="p">
              <xs:complexType mixed="true"><xs:sequence>
                <xs:element name="b" type="xs:string" minOccurs="0"/>
              </xs:sequence></xs:complexType>
            </xs:element></xs:schema>"""
        )
        assert schema.element_at("/p").content_model is ContentModel.MIXED
        assert schema.element_at("/p").can_have_text

    def test_empty_complex_type(self):
        schema = parse_schema(
            """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="e"><xs:complexType/></xs:element></xs:schema>"""
        )
        assert schema.element_at("/e").content_model is ContentModel.EMPTY

    def test_simple_type_restriction(self):
        schema = parse_schema(
            """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="year">
              <xs:simpleType><xs:restriction base="xs:gYear"/></xs:simpleType>
            </xs:element></xs:schema>"""
        )
        assert schema.element_at("/year").data_type is DataType.DATE

    def test_unsupported_type_raises(self):
        with pytest.raises(XMLError, match="unsupported simple type"):
            parse_schema(
                """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="x" type="xs:hexBinary"/></xs:schema>"""
            )

    def test_two_top_level_elements_raise(self):
        with pytest.raises(XMLError, match="exactly one top-level"):
            parse_schema(
                """<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                <xs:element name="a" type="xs:string"/>
                <xs:element name="b" type="xs:string"/></xs:schema>"""
            )

    def test_non_schema_root_raises(self):
        with pytest.raises(XMLError, match="xs:schema"):
            parse_schema("<wrong/>")


class TestSniffDataType:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("hello", DataType.STRING),
            ("", DataType.STRING),
            ("42", DataType.INTEGER),
            ("-17", DataType.INTEGER),
            ("3.14", DataType.DECIMAL),
            ("1999", DataType.DATE),       # year-like
            ("12345", DataType.INTEGER),   # not year-like
            ("1999-03-31", DataType.DATE),
            ("31.03.1999", DataType.DATE),
            ("31 March 1999", DataType.DATE),
            ("true", DataType.BOOLEAN),
            ("False", DataType.BOOLEAN),
            ("v1.2.3", DataType.STRING),
        ],
    )
    def test_sniff(self, value, expected):
        assert sniff_data_type(value) is expected


class TestSchemaInference:
    def test_structure_and_types(self):
        doc = parse(
            "<cat><item><n>one</n><q>3</q></item>"
            "<item><n>two</n><q>5</q><opt>x</opt></item></cat>"
        )
        schema = infer_schema(doc)
        assert schema.element_at("/cat/item").max_occurs is UNBOUNDED
        assert schema.element_at("/cat/item/n").data_type is DataType.STRING
        assert schema.element_at("/cat/item/q").data_type is DataType.INTEGER
        assert not schema.element_at("/cat/item/opt").is_mandatory
        assert schema.element_at("/cat/item/n").is_mandatory

    def test_optional_when_absent_later(self):
        doc = parse("<c><i><a>1</a></i><i/></c>")
        schema = infer_schema(doc)
        assert not schema.element_at("/c/i/a").is_mandatory

    def test_optional_when_absent_first(self):
        doc = parse("<c><i/><i><a>1</a></i></c>")
        schema = infer_schema(doc)
        assert not schema.element_at("/c/i/a").is_mandatory

    def test_repeated_child_unbounded(self):
        doc = parse("<c><i><a>1</a><a>2</a></i></c>")
        schema = infer_schema(doc)
        assert not schema.element_at("/c/i/a").is_singleton

    def test_mixed_content_detected(self):
        doc = parse("<c><p>text <b>bold</b></p></c>")
        schema = infer_schema(doc)
        assert schema.element_at("/c/p").content_model is ContentModel.MIXED

    def test_empty_element(self):
        doc = parse("<c><e/></c>")
        schema = infer_schema(doc)
        assert schema.element_at("/c/e").content_model is ContentModel.EMPTY

    def test_type_generalization_to_string(self):
        doc = parse("<c><v>12</v><v>hello</v></c>")
        schema = infer_schema(doc)
        assert schema.element_at("/c/v").data_type is DataType.STRING

    def test_numeric_generalization_to_decimal(self):
        doc = parse("<c><v>12</v><v>3.5</v></c>")
        schema = infer_schema(doc)
        assert schema.element_at("/c/v").data_type is DataType.DECIMAL

    def test_multiple_documents(self):
        docs = [parse("<c><a>x</a></c>"), parse("<c><b>y</b></c>")]
        schema = infer_schema(docs)
        assert "/c/a" in schema and "/c/b" in schema
        assert not schema.element_at("/c/a").is_mandatory
        assert not schema.element_at("/c/b").is_mandatory

    def test_root_mismatch_raises(self):
        with pytest.raises(XMLError, match="disagree on the root"):
            infer_schema([parse("<a/>"), parse("<b/>")])

    def test_no_documents_raises(self):
        with pytest.raises(XMLError):
            infer_schema([])

    def test_child_order_preserved(self):
        doc = parse("<c><i><z>1</z><a>2</a><m>3</m></i></c>")
        schema = infer_schema(doc)
        order = [e.name for e in schema.element_at("/c/i").children]
        assert order == ["z", "a", "m"]


# ----------------------------------------------------------------------
# infer_schema against the per-element reference it replaced
# ----------------------------------------------------------------------
def declarations(schema):
    return [
        (e.path(), e.name, e.data_type, e.content_model, e.min_occurs,
         e.max_occurs, e.nillable, e.is_key)
        for e in schema.iter()
    ]


def assert_same_schema_as_the_reference(documents):
    ours = declarations(infer_schema(documents))
    assert ours == declarations(xml_cold_path.infer_schema(documents))
    return ours


#: few tags and values that sniff to every type, so paths repeat and
#: types meet: INTEGER + DECIMAL, DATE + STRING, a STRING seen first, ...
VALUES = st.sampled_from(["", " ", "7", "-3", "2.5", "1999", "true", "x", "12 Jan 2001"])
TAGS = st.sampled_from(["a", "b", "c"])


def trees(depth):
    if depth == 0:
        return st.builds(Element, TAGS, st.just({}), st.lists(VALUES, max_size=2))
    return st.builds(
        Element,
        TAGS,
        st.just({}),
        st.lists(st.one_of(VALUES, trees(depth - 1)), max_size=5),
    )


class TestInferenceEqualsTheReference:
    def test_datasets_the_running_example_and_the_golden_outputs(self):
        for dataset in (
            build_dataset1(base_count=40, seed=7),
            build_dataset2(count=40, seed=13),
            build_dataset3(count=150, seed=11),
        ):
            for source in dataset.sources:
                assert len(assert_same_schema_as_the_reference(source.document)) > 3
        assert_same_schema_as_the_reference(paper_example_document())
        golden = sorted((pathlib.Path(__file__).parent / "golden").glob("*.xml"))
        assert len(golden) >= 2
        for path in golden:
            assert_same_schema_as_the_reference(parse_file(path))

    @given(st.lists(trees(3), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_generated_trees(self, roots):
        for root in roots[1:]:
            root.tag = roots[0].tag  # all inputs share the root element
        assert_same_schema_as_the_reference(roots)

    def test_a_string_path_is_not_sniffed_again(self, monkeypatch):
        import repro.xmlkit.schema_infer as module

        sniffed = []
        sniff = module.sniff_data_type
        monkeypatch.setattr(
            module, "sniff_data_type", lambda v: sniffed.append(v) or sniff(v)
        )
        schema = infer_schema(parse("<r><v>x</v><v>1</v><v>2</v><n>1</n><n>2</n></r>"))
        assert sniffed == ["x", "1", "2"]
        assert schema.element_at("/r/v").data_type is DataType.STRING
        assert schema.element_at("/r/n").data_type is DataType.INTEGER
