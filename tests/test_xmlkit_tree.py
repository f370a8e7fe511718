"""Tree model tests: axes, paths, manipulation."""

import json
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st
from reference import xml_cold_path
from reference.xml_cold_path import tree_shape

from repro.framework import DescriptionDefinition, generate_ods
from repro.xmlkit import (
    Document,
    Element,
    XMLError,
    document_from_record,
    document_record,
    element_record,
    parse,
    serialize,
    strip_positions,
)


@pytest.fixture()
def tree():
    return parse(
        "<doc>"
        "<movie><title>A</title><actor><name>n1</name></actor>"
        "<actor><name>n2</name></actor></movie>"
        "<movie><title>B</title></movie>"
        "</doc>"
    ).root


class TestAccessors:
    def test_children(self, tree):
        assert [c.tag for c in tree.children] == ["movie", "movie"]

    def test_find_first(self, tree):
        assert tree.find("movie").find("title").text == "A"

    def test_find_missing_returns_none(self, tree):
        assert tree.find("nope") is None

    def test_find_all(self, tree):
        movie = tree.find("movie")
        assert len(movie.find_all("actor")) == 2

    def test_get_attribute_default(self):
        element = Element("a", {"x": "1"})
        assert element.get("x") == "1"
        assert element.get("y") is None
        assert element.get("y", "d") == "d"

    def test_has_text(self, tree):
        assert tree.find("movie").find("title").has_text
        assert not tree.find("movie").has_text

    def test_text_content_subtree(self, tree):
        assert tree.find("movie").text_content() == "An1n2"


class TestAxes:
    def test_ancestors(self, tree):
        name = tree.find("movie").find("actor").find("name")
        assert [a.tag for a in name.ancestors()] == ["actor", "movie", "doc"]

    def test_iter_document_order(self, tree):
        tags = [e.tag for e in tree.iter()]
        assert tags == [
            "doc", "movie", "title", "actor", "name", "actor", "name",
            "movie", "title",
        ]

    def test_descendants_excludes_self(self, tree):
        assert "doc" not in [e.tag for e in tree.descendants()]

    def test_descendants_at_depth(self, tree):
        level1 = tree.descendants_at_depth(1)
        assert [e.tag for e in level1] == ["movie", "movie"]
        level2 = tree.descendants_at_depth(2)
        assert [e.tag for e in level2] == ["title", "actor", "actor", "title"]

    def test_descendants_at_depth_zero_raises(self, tree):
        with pytest.raises(XMLError):
            tree.descendants_at_depth(0)

    def test_breadth_first_order(self, tree):
        tags = [e.tag for e in tree.breadth_first()]
        assert tags == [
            "movie", "movie", "title", "actor", "actor", "title",
            "name", "name",
        ]

    def test_depth_and_root(self, tree):
        name = tree.find("movie").find("actor").find("name")
        assert name.depth == 3
        assert tree.depth == 0
        assert name.root is tree


class TestPaths:
    def test_absolute_path_with_positions(self, tree):
        second_actor = tree.find("movie").find_all("actor")[1]
        assert second_actor.absolute_path() == "/doc/movie[1]/actor[2]"

    def test_absolute_path_singleton_omits_position(self, tree):
        title = tree.find("movie").find("title")
        assert title.absolute_path() == "/doc/movie[1]/title"

    def test_generic_path(self, tree):
        name = tree.find("movie").find("actor").find("name")
        assert name.generic_path() == "/doc/movie/actor/name"

    def test_strip_positions(self):
        assert strip_positions("/doc/movie[2]/actor[13]/name") == (
            "/doc/movie/actor/name"
        )
        assert strip_positions("/plain/path") == "/plain/path"

    @given(st.text(alphabet="ab/[]1", max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_strip_positions_equals_the_character_loop(self, path):
        """Also on unbalanced input: ``a[1``, ``a]b``, ``a[[1]]``."""
        assert strip_positions(path) == xml_cold_path.strip_positions(path)

    def test_child_position(self, tree):
        movie = tree.find("movie")
        actors = movie.find_all("actor")
        assert movie.child_position(actors[0]) == 1
        assert movie.child_position(actors[1]) == 2

    def test_child_position_not_a_child(self, tree):
        with pytest.raises(XMLError):
            tree.child_position(Element("stranger"))


class TestManipulation:
    def test_append_sets_parent(self):
        parent = Element("p")
        child = Element("c")
        parent.append(child)
        assert child.parent is parent

    def test_append_reparent_rejected(self):
        parent = Element("p")
        child = Element("c")
        parent.append(child)
        with pytest.raises(XMLError, match="already has a parent"):
            Element("q").append(child)

    def test_remove(self):
        parent = Element("p", content=[Element("c1"), Element("c2")])
        child = parent.children[0]
        parent.remove(child)
        assert [c.tag for c in parent.children] == ["c2"]
        assert child.parent is None

    def test_remove_non_child_raises(self):
        with pytest.raises(XMLError):
            Element("p").remove(Element("c"))

    def test_copy_is_deep_and_detached(self, tree):
        movie = tree.find("movie")
        clone = movie.copy()
        assert clone.parent is None
        assert clone.find("title").text == "A"
        clone.find("title")._content = ["changed"]
        assert movie.find("title").text == "A"

    def test_copy_preserves_attributes(self):
        element = Element("a", {"k": "v"})
        assert element.copy().attributes == {"k": "v"}

    def test_empty_tag_rejected(self):
        with pytest.raises(XMLError):
            Element("")

    def test_extend(self):
        parent = Element("p")
        parent.extend([Element("a"), "text", Element("b")])
        assert [c.tag for c in parent.children] == ["a", "b"]
        assert parent.text == "text"


# ----------------------------------------------------------------------
# Cached children and sibling ordinals against a from-scratch reference
# ----------------------------------------------------------------------
def reference_children(node):
    return [item for item in node.content if isinstance(item, Element)]


def reference_position(parent, child):
    """The sibling numbering as it was before the tree cached anything."""
    position = 0
    for node in reference_children(parent):
        if node.tag == child.tag:
            position += 1
        if node is child:
            return position
    raise AssertionError("not a child")


def reference_path(node):
    steps = []
    while node.parent is not None:
        parent = node.parent
        same_tag = [n for n in reference_children(parent) if n.tag == node.tag]
        if len(same_tag) > 1:
            steps.append(f"{node.tag}[{reference_position(parent, node)}]")
        else:
            steps.append(node.tag)
        node = parent
    steps.append(node.tag)
    return "/" + "/".join(reversed(steps))


def reference_walk(root):
    """Document order through ``content`` alone: fills no cache."""
    out = [root]
    for child in reference_children(root):
        out.extend(reference_walk(child))
    return out


def assert_matches_reference(root):
    elements = reference_walk(root)
    paths = [reference_path(element) for element in elements]
    assert list(root.iter()) == elements
    assert [element.absolute_path() for element in elements] == paths
    for element in elements:
        assert element.children == tuple(reference_children(element))
        if element.parent is not None:
            assert element.parent.child_position(element) == reference_position(
                element.parent, element
            )


TAGS = st.sampled_from(["a", "b", "c", "item", "only-1", "only-2"])
TEXTS = st.text(alphabet="xy ", max_size=3)


def build(spec):
    tag, items = spec
    return Element(
        tag, content=[item if isinstance(item, str) else build(item) for item in items]
    )


def specs(depth, width=40):
    if depth == 0:
        return st.tuples(TAGS, st.lists(TEXTS, max_size=2))
    return st.tuples(
        TAGS, st.lists(st.one_of(TEXTS, specs(depth - 1, width=6)), max_size=width)
    )


class TestCachedPathsEqualReference:
    @given(specs(depth=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_through_every_mutator_copy_and_pickle(self, spec, data):
        root = build(spec)
        assert_matches_reference(root)  # fills the caches a mutator must drop
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            elements = reference_walk(root)
            target = elements[data.draw(st.integers(0, len(elements) - 1))]
            children = reference_children(target)
            action = data.draw(
                st.sampled_from(
                    ["append", "remove", "replace", "drop_text", "copy", "pickle"]
                )
            )
            if action == "append":
                target.append(data.draw(st.one_of(TEXTS, specs(depth=1).map(build))))
            elif action == "remove" and children:
                removed = children[data.draw(st.integers(0, len(children) - 1))]
                target.remove(removed)
                assert removed.parent is None
                assert removed.absolute_path() == f"/{removed.tag}"
            elif action == "replace":
                kept = data.draw(st.permutations(children))
                kept = kept[: data.draw(st.integers(0, len(kept)))]
                fresh = data.draw(st.lists(st.one_of(TEXTS, specs(depth=1).map(build)), max_size=3))
                target.replace_content(list(kept) + fresh)
                assert all(
                    (child.parent is target) == any(child is item for item in kept)
                    for child in children
                )
            elif action == "drop_text":
                before = target.children  # the cached tuple survives
                target.drop_text()
                assert target.content == tuple(children)
                assert target.children is before
            elif action == "copy":
                clone = target.copy()
                assert clone.parent is None
                assert serialize(clone, indent=None) == serialize(target, indent=None)
                assert_matches_reference(clone)
                target.append(clone)
            elif action == "pickle":
                payload = pickle.dumps(root)
                # the caches travel neither as bytes nor as stale ids
                assert len(payload) == len(pickle.dumps(root.copy()))
                root = pickle.loads(payload)
            assert_matches_reference(root)

    def test_replace_content_checks_items_like_append(self):
        parent, other = Element("p", content=[Element("old")]), Element("q")
        adopted = Element("c")
        other.append(adopted)
        loose = Element("d")
        for items in ([loose, adopted], [loose, loose]):
            with pytest.raises(XMLError, match="already has a parent"):
                parent.replace_content(items)
            # the items before the refused one stay; nothing is left half-attached
            assert parent.children == (loose,) and loose.parent is parent
            assert adopted.parent is other
            assert_matches_reference(parent)
            parent.replace_content([])
            assert loose.parent is None and parent.content == ()

    def test_children_is_not_the_live_sequence(self, tree):
        before = tree.children
        tree.append(Element("extra"))
        assert isinstance(before, tuple) and len(before) == 2
        assert [child.tag for child in tree.children] == ["movie", "movie", "extra"]


class TestOpenIsOneTreeWalk:
    @staticmethod
    def materialisations(records, monkeypatch):
        """Child tuples built while parsing a corpus and generating its ODs."""
        text = (
            "<db>\n"
            + "".join(
                f"  <disc><title>t{i}</title><tracks><title>a{i}</title>"
                f"<title>b{i}</title></tracks></disc>\n"
                for i in range(records)
            )
            + "</db>"
        )
        calls = []
        materialise = Element._materialise_children

        def counting(self):
            calls.append(self)
            return materialise(self)

        with monkeypatch.context() as patch:
            patch.setattr(Element, "_materialise_children", counting)
            root = parse(text).root
            ods = generate_ods(
                DescriptionDefinition(("./title", "./tracks/title")),
                root.find_all("disc"),
            )
        assert len(ods) == records
        assert ods[-1].tuples[-1].name == f"/db/disc[{records}]/tracks/title[2]"
        return len(calls)

    def test_od_generation_work_is_linear_in_the_record_count(self, monkeypatch):
        small = self.materialisations(150, monkeypatch)
        large = self.materialisations(300, monkeypatch)
        assert 0 < large <= 2.2 * small


def eight_readers(root):
    """``absolute_path()`` of every element from 8 threads at once,
    on a tree no one has queried; returns the expected paths too."""
    elements = reference_walk(root)
    expected = [reference_path(element) for element in elements]
    barrier = threading.Barrier(8)
    answers = [None] * 8

    def read(slot):
        barrier.wait(timeout=10)
        answers[slot] = [element.absolute_path() for element in elements]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return answers, expected


DISCS = (
    "<db>"
    + "".join(
        f"<disc><did>{i}</did><tracks>"
        + "".join(f"<title>t{j}</title>" for j in range(i % 4 + 1))
        + "</tracks></disc>"
        for i in range(120)
    )
    + "</db>"
)


class TestReaderThreads:
    def test_eight_threads_on_a_never_queried_tree(self):
        answers, expected = eight_readers(parse(DISCS).root)
        assert answers == [expected] * 8

    def test_eight_threads_on_a_decoded_tree(self):
        """A snapshot's tree reaches the daemon's readers with every
        cache unset, as an unpickled one does."""
        record = json.loads(
            json.dumps(document_record(parse(DISCS)), default=element_record)
        )
        document, order = document_from_record(record)
        assert all(element._children is None for element in order)
        answers, expected = eight_readers(document.root)
        assert answers == [expected] * 8


# ----------------------------------------------------------------------
# The structural codec (what an index snapshot stores a tree as)
# ----------------------------------------------------------------------
NAMES = st.text(min_size=1, max_size=4)
ANY_TEXT = st.text(max_size=6)
ATTRIBUTES = st.dictionaries(NAMES, ANY_TEXT, max_size=3)


def documents(depth=3):
    def element(children):
        return st.builds(
            Element,
            NAMES,
            ATTRIBUTES,
            # text nodes may be empty and may sit side by side
            st.lists(st.one_of(ANY_TEXT, children), max_size=5),
        )

    leaf = st.builds(Element, NAMES, ATTRIBUTES, st.lists(ANY_TEXT, max_size=2))
    tree = leaf
    for _ in range(depth):
        tree = element(tree)
    return st.builds(Document, tree, ATTRIBUTES)


class TestStructuralCodec:
    @given(documents())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_node_for_node(self, document):
        text = json.dumps(document_record(document), default=element_record)
        decoded, order = document_from_record(json.loads(text))
        originals = reference_walk(document.root)
        assert order == list(decoded.iter()) == reference_walk(decoded.root)
        assert len(order) == len(originals)
        assert decoded.declaration == document.declaration
        assert list(decoded.declaration) == list(document.declaration)
        twin = {id(old): new for old, new in zip(originals, order)}
        for old, new in zip(originals, order):
            assert new.tag == old.tag
            assert list(new.attributes.items()) == list(old.attributes.items())
            assert len(new.content) == len(old.content)
            for ours, theirs in zip(new.content, old.content):
                if isinstance(theirs, str):
                    assert ours == theirs  # item for item: nothing merged
                else:
                    assert ours is twin[id(theirs)]
            assert new.parent is (None if old.parent is None else twin[id(old.parent)])
            assert new.absolute_path() == old.absolute_path()
        assert_matches_reference(decoded.root)
        # the decoded tree is an ordinary tree
        assert tree_shape(decoded.root.copy()) == tree_shape(document.root)
        unpickled = pickle.loads(pickle.dumps(decoded.root))
        assert tree_shape(unpickled) == tree_shape(document.root)
        assert_matches_reference(unpickled)
        decoded.root.append(Element("late"))
        assert decoded.root.children[-1].absolute_path().endswith("/late")

    def test_record_shape(self):
        document = parse(
            '<?xml version="1.0"?><a k="v">x<b/><!-- split -->y<c>z</c></a>'
        )
        text = json.dumps(document_record(document), default=element_record)
        assert json.loads(text) == [
            {"version": "1.0"},
            ["a", {"k": "v"}, ["x", ["b", {}, []], "y", ["c", {}, ["z"]]]],
        ]

    def test_the_encoder_reads_the_tree_and_builds_no_copy_of_it(self):
        """``save`` is not charged a second tree: the hook hands the
        encoder each element's own dict and list (0.7 MiB on the
        daemon's peak at n = 200 when a full record was built first)."""
        root = parse('<a k="v"><b/>t</a>').root
        tag, attributes, content = element_record(root)
        assert tag == "a" and attributes is root.attributes
        assert content == list(root.content)
        with pytest.raises(TypeError, match="not JSON serializable"):
            element_record(object())
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps([root, {1, 2}], default=element_record)

    @pytest.mark.parametrize(
        "record",
        [
            None,
            "a",
            [{}],
            [{}, ["a", {}, []], "extra"],
            [None, ["a", {}, []]],
            [{}, None],
            [{}, ["a", {}]],
            [{}, ["", {}, []]],
            [{}, [1, {}, []]],
            [{}, ["a", [], []]],
            [{}, ["a", {}, "text"]],
            [{}, ["a", {}, [1]]],
            [{}, ["a", {}, [None]]],
            [{}, ["a", {}, [{"tag": "b"}]]],
            [{}, ["a", {}, ["ok", ["b", {}, [["", {}, []]]]]]],
            # names and values the serializer cannot write: it raised
            # TypeError on an attribute {"id": 5} a snapshot had loaded
            [{}, ["a", {"id": 5}, []]],
            [{}, ["a", {}, [["b", {"k": None}, []]]]],
            [{}, ["a", {5: "v"}, []]],
            [{"version": 1.0}, ["a", {}, []]],
            [{"encoding": ["UTF-8"]}, ["a", {}, []]],
        ],
    )
    def test_any_other_shape_is_an_xml_error(self, record):
        with pytest.raises(XMLError):
            document_from_record(record)


class TestStoredDocument:
    """A document kept as its record's JSON text until first read."""

    def text(self, document) -> str:
        return json.dumps(document_record(document), default=element_record)

    def test_decoded_once_on_first_read_as_the_codec_decodes(self):
        built = parse(DISCS)
        order = list(built.iter())
        ranks = [3, 0, len(order) - 1]
        anchors = [(rank, order[rank].absolute_path()) for rank in ranks]
        stored = Document.stored(self.text(built), anchors, "here")
        assert not stored.decoded
        nodes = [stored.element_at(rank) for rank in ranks]
        assert stored.decoded
        assert list(stored.iter()) == [stored.element_at(r) for r in range(len(order))]
        assert [node.absolute_path() for node in nodes] == [p for _, p in anchors]
        assert stored.root is stored.element_at(0) is nodes[1]
        assert stored.declaration == built.declaration
        assert tree_shape(stored.root) == tree_shape(built.root)
        assert serialize(stored) == serialize(built)
        # pickles (and copies) as an ordinary document
        again = pickle.loads(pickle.dumps(stored))
        assert again.decoded and serialize(again) == serialize(built)

    @pytest.mark.parametrize(
        "text, anchors",
        [
            ('[{},["a",{},[]]', []),
            ('[{},["a",{"k":5},[]]]', []),
            ('[{},["a",{},[]]]', [(1, "/a")]),
            ('[{},["a",{},[["b",{},[]]]]]', [(1, "/a")]),
        ],
        ids=["truncated", "attribute a number", "no such rank", "another path"],
    )
    def test_a_text_that_does_not_decode_names_its_origin(self, text, anchors):
        stored = Document.stored(text, anchors, "snapshot X, document 0")
        for _ in range(2):  # and stays undecoded
            with pytest.raises(XMLError, match="^snapshot X, document 0 does not"):
                stored.root
        assert not stored.decoded

    def test_a_built_document_is_decoded(self):
        built = parse(DISCS)
        assert built.decoded
        assert built.element_at(2) is list(built.iter())[2]
