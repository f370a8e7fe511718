"""IndexStore: content-addressed snapshot save/load round trips.

The warm-start contract: a session loaded from a snapshot answers
``detect()``, ``match()``, and ``explain()`` exactly like the cold
build the snapshot was taken from — and the content key makes serving
a stale snapshot impossible (any input-byte or OD-relevant-config
change misses).  The version policy (unknown ``format`` == miss, never
an error) is pinned here too, plus the CLI ``index build`` /
``--store`` flow.
"""

from __future__ import annotations

import base64
import copy
import gc
import gzip
import hashlib
import json
import os
import random
import sys
import tempfile
import zlib
from array import array
from collections import Counter
from pathlib import Path
from xml.parsers import expat

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from reference.naive_index import NaiveIndex
from reference.xml_cold_path import tree_shape
from test_backend_equivalence import class_fuzz_dataset, source_of
from test_import_closure import CORPUS as CLOSURE_CORPUS
from test_import_closure import MAPPING as CLOSURE_MAPPING

import repro.ingest.store as store_module
import repro.strings.qgram as qgram_module
from repro.api import Corpus, DetectionSession, RunSpec
from repro.cli import main as cli_main
from repro.core.index import IndexPartial
from repro.datagen import (
    PAPER_EXAMPLE_XML,
    PAPER_EXAMPLE_XSD,
    paper_example_mapping,
)
from repro.datagen.freedb import CD_XSD
from repro.eval import build_dataset1, build_dataset3
from repro.framework import ObjectDescription, TypeMapping
from repro.ingest import FORMAT_VERSION, IndexStore
from repro.ingest.store import SnapshotInfo
from repro.strings import QGramIndex, qgrams
from repro.eval.gold import gold_pairs
from repro.xmlkit import (
    Document,
    Element,
    XMLError,
    document_record,
    element_record,
    parse,
    serialize,
)


@pytest.fixture()
def example_dir(tmp_path):
    """The paper's running example as spec-addressable files."""
    (tmp_path / "movies.xml").write_text(PAPER_EXAMPLE_XML, encoding="utf-8")
    (tmp_path / "movies.xsd").write_text(PAPER_EXAMPLE_XSD, encoding="utf-8")
    (tmp_path / "mapping.xml").write_text(
        paper_example_mapping().to_xml(), encoding="utf-8"
    )
    return tmp_path


def example_spec(example_dir) -> RunSpec:
    return RunSpec(
        documents=[str(example_dir / "movies.xml")],
        mapping=str(example_dir / "mapping.xml"),
        real_world_type="MOVIE",
        schemas=[str(example_dir / "movies.xsd")],
        heuristic="rdistant:2",
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )


class TestRoundTrip:
    def test_save_load_bit_identical(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        assert store.load(spec) is None  # cold store
        assert not store.contains(spec)
        cold = spec.build_session()
        digest = store.save(spec, cold)
        assert store.contains(spec)
        warm = store.load(spec)
        assert warm is not None
        # Same candidate set with elements re-attached to real paths...
        assert [od.object_id for od in warm.ods] == [
            od.object_id for od in cold.ods
        ]
        assert [od.tuples for od in warm.ods] == [od.tuples for od in cold.ods]
        assert [od.element.absolute_path() for od in warm.ods] == [
            od.element.absolute_path() for od in cold.ods
        ]
        # ...the same index statistics, and bit-identical detection.
        assert warm.index.statistics() == cold.index.statistics()
        assert warm.detect().identical_to(cold.detect())
        for od in cold.ods:
            assert [
                (m.object_id, m.similarity, m.path)
                for m in warm.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in cold.match(od.object_id)
            ]
        assert len(digest) == 64

    def test_extended_sessions_cannot_be_snapshotted(self, example_dir, tmp_path):
        """The content key covers only the spec's documents, so a
        session that grew via extend() must be rejected rather than
        poison the snapshot for its spec."""
        from repro.core import Source
        from repro.xmlkit import parse

        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        session = spec.build_session()
        session.extend(
            Source(parse("<moviedoc><movie><title>Alien</title>"
                         "<year>1979</year></movie></moviedoc>"),
                   session.corpus.sources[0].schema)
        )
        with pytest.raises(ValueError, match="extend"):
            store.save(spec, session)

    def test_loaded_session_supports_extend(self, example_dir, tmp_path):
        """Warm sessions are full sessions: schemas round-trip, so
        extend() (schema-driven OD generation) works after a load."""
        from repro.core import Source
        from repro.xmlkit import parse

        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        store.save(spec, spec.build_session())
        warm = store.load(spec)
        late = parse(
            "<moviedoc><movie><title>Sings</title><year>2002</year>"
            "</movie></moviedoc>"
        )
        update = warm.extend(Source(late, warm.corpus.sources[0].schema))
        assert update.added[0].object_id == 3
        assert 3 in [m.object_id for m in warm.match(2)]


class TestContentAddressing:
    def test_key_is_stable(self, example_dir):
        spec = example_spec(example_dir)
        store = IndexStore(example_dir / "store")
        assert store.key_for(spec) == store.key_for(example_spec(example_dir))

    def test_key_ignores_non_index_knobs(self, example_dir):
        """theta_cand, execution, and filter switches do not reshape
        ODs or the index — snapshots stay warm across them."""
        store = IndexStore(example_dir / "store")
        base = store.key_for(example_spec(example_dir))
        tweaked = example_spec(example_dir)
        tweaked.theta_cand = 0.8
        tweaked.workers = 4
        tweaked.backend = "process"
        assert store.key_for(tweaked) == base

    def test_key_tracks_index_shaping_inputs(self, example_dir):
        store = IndexStore(example_dir / "store")
        base = store.key_for(example_spec(example_dir))
        for mutate in (
            lambda s: setattr(s, "theta_tuple", 0.6),
            lambda s: setattr(s, "heuristic", "kclosest:3"),
            lambda s: setattr(s, "real_world_type", "FILM"),
            lambda s: setattr(s, "include_empty", True),
        ):
            spec = example_spec(example_dir)
            mutate(spec)
            assert store.key_for(spec) != base

    def test_key_tracks_file_contents(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        session = spec.build_session()
        store.save(spec, session)
        document = example_dir / "movies.xml"
        document.write_text(
            PAPER_EXAMPLE_XML.replace("Signs", "Sings"), encoding="utf-8"
        )
        # Same paths, different bytes: a different corpus, so a miss.
        assert store.load(example_spec(example_dir)) is None


#: ``key_for`` of the four-record corpus of ``test_import_closure``, as
#: the store computed it with ``hashlib``; the snapshot that store wrote
#: of it is filed under it in ``tests/golden/format5_store``.
CLOSURE_KEY = "b3201b5b27799a30b4b9e64d9f2e893cac93a0a66271afc94d3f9b6166611e80"
GOLDEN_STORE = Path(__file__).with_name("golden") / "format5_store"


def closure_spec(directory) -> RunSpec:
    (directory / "cds.xml").write_text(CLOSURE_CORPUS, encoding="utf-8")
    (directory / "mapping.xml").write_text(CLOSURE_MAPPING, encoding="utf-8")
    return RunSpec(
        documents=[str(directory / "cds.xml")],
        mapping=str(directory / "mapping.xml"),
        real_world_type="DISC",
    )


@pytest.fixture()
def corpus_dirs(tmp_path):
    """(store, spec) of the four-record closure corpus."""
    return IndexStore(tmp_path / "store"), closure_spec(tmp_path)


def hashlib_seal(key: str, texts: list, od_records: list) -> str:
    """The seal as its docstring defines it, computed with ``hashlib``."""
    digest = hashlib.sha256()
    entries = [key, *texts] + [
        f"{r['id']} {r['doc']} {r['node']} {r['path']}"
        for r in od_records
        if "doc" in r
    ]
    for entry in entries:
        data = entry.encode("utf-8", "surrogatepass")
        digest.update(str(len(data)).encode("ascii") + b":" + data)
    return digest.hexdigest()


class TestDigestsUnchanged:
    """Store keys and seals hash with the interpreter's built-in SHA-256
    (``store._sha256``), not ``hashlib``'s OpenSSL one: every key, seal
    and digest in a URL must stay what ``hashlib`` computed."""

    @settings(max_examples=200, deadline=None)
    @given(chunks=st.lists(st.binary(max_size=300), max_size=8))
    def test_the_constructor_is_hashlibs_sha256(self, chunks):
        whole = b"".join(chunks)
        assert (
            store_module._sha256(whole).hexdigest()
            == hashlib.sha256(whole).hexdigest()
        )
        ours, theirs = store_module._sha256(), hashlib.sha256()
        for chunk in chunks:
            ours.update(chunk)
            theirs.update(chunk)
        assert ours.digest() == theirs.digest()

    def test_the_key_of_a_known_corpus(self, tmp_path):
        spec = closure_spec(tmp_path)
        assert IndexStore(tmp_path / "store").key_for(spec) == CLOSURE_KEY
        assert store_module._file_digest(tmp_path / "cds.xml") == (
            hashlib.sha256(CLOSURE_CORPUS.encode("utf-8")).hexdigest()
        )

    def test_the_seal_of_a_saved_snapshot_is_hashlibs(self, corpus_dirs):
        store, spec = corpus_dirs
        digest = store.save(spec, spec.build_session())
        payload = stored_payload(store, digest)
        assert payload["seal"] == hashlib_seal(
            digest, payload["documents"], payload["ods"]
        )
        golden = json.loads(gzip.decompress(
            (GOLDEN_STORE / f"{CLOSURE_KEY}.json.gz").read_bytes()
        ))
        assert (payload["seal"], payload["documents"]) == (
            golden["seal"], golden["documents"]
        )

    def test_a_snapshot_written_before_opens_warm(self, corpus_dirs):
        """The golden snapshot was saved by the ``hashlib`` store."""
        store, spec = corpus_dirs
        store.root.mkdir()
        golden = GOLDEN_STORE / f"{CLOSURE_KEY}.json.gz"
        (store.root / golden.name).write_bytes(golden.read_bytes())
        assert store.contains(spec)
        warm = store.load(spec)
        assert warm is not None
        cold = spec.build_session()
        assert warm.detect().to_xml() == cold.detect().to_xml()
        assert [m.object_id for m in warm.match(0)] == [1]


class TestVersionPolicy:
    def test_unknown_format_is_a_miss(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        store.save(spec, spec.build_session())
        digest = store.key_for(spec)
        path = store._snapshot_path(digest)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = FORMAT_VERSION + 1
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
        # An old-format store carries old-format (or no) manifests too;
        # age the sidecar the same way the snapshot was aged.
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert store.load(spec) is None  # rebuild, don't crash
        assert store.list() == []  # catalogs only the current format
        # Same policy on the manifest-less slow path.
        manifest_path.unlink()
        assert store.list() == []

    def test_a_format_bump_overwrites_instead_of_orphaning(
        self, example_dir, tmp_path, monkeypatch
    ):
        """Regression: the key hashed ``FORMAT_VERSION``, so after a bump
        every spec mapped to a new digest — the old file was never found
        (let alone overwritten), stayed for ever, and ``list()``
        gunzipped it on every call."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        digest = store.save(spec, spec.build_session())
        path, manifest_path = store._snapshot_path(digest), store._manifest_path(digest)
        # what the previous version of this program left behind
        stale = json.loads(gzip.decompress(path.read_bytes()))
        stale["format"] = 2
        path.write_bytes(gzip.compress(json.dumps(stale).encode()))
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = 2
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert store.key_for(spec) == digest  # found under the same key
        assert store.load(spec) is None
        assert store.spec_for(digest) is None and store.list() == []
        assert store.save(spec, spec.build_session()) == digest
        assert sorted(p.name for p in store.root.iterdir()) == sorted(
            [path.name, manifest_path.name]
        )
        warm = store.load(spec)
        assert warm is not None and len(warm.ods) == 3
        assert store.spec_for(digest) is not None
        monkeypatch.setattr(store_module, "FORMAT_VERSION", FORMAT_VERSION + 1)
        assert store.key_for(spec) == digest

    def test_list_catalog(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        assert store.list() == []
        store.save(spec, spec.build_session())
        (entry,) = store.list()
        assert isinstance(entry, SnapshotInfo)
        assert entry.real_world_type == "MOVIE"
        assert entry.objects == 3
        assert entry.sources == 1
        assert entry.digest == store.key_for(spec)


class TestScratchHygiene:
    def test_save_sweeps_dead_writer_scratch(self, example_dir, tmp_path):
        """Regression: a writer dying between the scratch write and
        ``os.replace`` leaked ``.tmp<pid>`` files forever — nothing
        ever deleted them.  ``save()`` now sweeps scratch whose pid is
        not a live process."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        store.root.mkdir(parents=True)
        # Pids far above kernel defaults (pid_max is usually 4194304,
        # and 2**22 + offsets are never assigned in this container).
        dead = store.root / f"{'a' * 64}.json.gz.tmp999999999"
        dead.write_bytes(b"torn half-written snapshot")
        garbled = store.root / "whatever.tmpnotapid"
        garbled.write_bytes(b"junk")
        store.save(spec, spec.build_session())
        assert not dead.exists()
        assert not garbled.exists()
        # The real snapshot landed and catalogs normally.
        assert len(store.list()) == 1

    def test_sweep_spares_live_writers(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        store.root.mkdir(parents=True)
        live = store.root / f"{'b' * 64}.json.gz.tmp{os.getpid()}"
        live.write_bytes(b"concurrent writer's scratch")
        store.save(spec, spec.build_session())
        assert live.exists()  # its own os.replace is still coming
        live.unlink()


class TestManifestCatalog:
    def test_list_never_decompresses_snapshots(
        self, example_dir, tmp_path, monkeypatch
    ):
        """Regression: ``list()`` gunzipped and JSON-parsed every full
        serialized corpus just to print a catalog line.  With manifests
        present it must not open a single snapshot."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        store.save(spec, spec.build_session())

        def refuse(*args, **kwargs):
            raise AssertionError("list() opened a snapshot despite manifests")

        monkeypatch.setattr(store_module.gzip, "open", refuse)
        monkeypatch.setattr(store_module.gzip, "decompress", refuse)
        (entry,) = store.list()
        assert entry.objects == 3
        assert entry.sources == 1
        assert entry.real_world_type == "MOVIE"

    def test_manifest_missing_falls_back_to_snapshot(
        self, example_dir, tmp_path
    ):
        """Pre-manifest stores (or a deleted sidecar) keep cataloging
        through the slow path."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        digest = store.save(spec, spec.build_session())
        store._manifest_path(digest).unlink()
        (entry,) = store.list()
        assert entry.digest == digest
        assert entry.objects == 3

    def test_spec_for_round_trips_a_working_session(
        self, example_dir, tmp_path
    ):
        """The manifest records the build spec, so a server can warm a
        session knowing only the digest."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        digest = store.save(spec, spec.build_session())
        recovered = store.spec_for(digest)
        assert recovered is not None
        assert store.key_for(recovered) == digest
        warm = store.load(recovered, digest=digest)
        assert warm is not None
        assert [m.object_id for m in warm.match(0)] == [1]

    def test_spec_for_unknown_digest_is_none(self, tmp_path):
        store = IndexStore(tmp_path / "store")
        assert store.spec_for("f" * 64) is None

    def test_resolve_digest_prefix(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        assert store.resolve_digest("ab") is None  # empty store
        digest = store.save(spec, spec.build_session())
        assert store.resolve_digest(digest[:8]) == digest
        assert store.resolve_digest(digest) == digest
        assert store.resolve_digest("not-a-digest") is None

    def test_resolve_digest_matches_text_not_patterns(self, example_dir, tmp_path):
        """A client's prefix is never a glob: ``*`` raised from inside
        ``Path.glob`` and ``[0-9a-f]`` matched every digest."""
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        digest = store.save(spec, spec.build_session())
        for pattern in ("*", "[0-9a-f]", "[!z]"):
            assert store.resolve_digest(pattern) is None, pattern
        assert store.resolve_digest(digest[:6]) == digest


# ----------------------------------------------------------------------
# Format 3: trees as structural records, ODs by document-order rank
# ----------------------------------------------------------------------
def write_corpus(directory, dataset, **spec_fields) -> RunSpec:
    """A generated dataset as bare files, the way the bench writes them
    (pretty-printed XML, a mapping, no schema)."""
    directory.mkdir()
    (directory / "corpus.xml").write_text(
        serialize(dataset.sources[0].document), encoding="utf-8"
    )
    (directory / "mapping.xml").write_text(
        dataset.mapping.to_xml(), encoding="utf-8"
    )
    return RunSpec(
        documents=[str(directory / "corpus.xml")],
        mapping=str(directory / "mapping.xml"),
        real_world_type=dataset.real_world_type,
        **spec_fields,
    )


def assert_warm_equals_cold(warm, cold):
    assert [od.object_id for od in warm.ods] == [od.object_id for od in cold.ods]
    assert [od.tuples for od in warm.ods] == [od.tuples for od in cold.ods]
    assert [od.element.absolute_path() for od in warm.ods] == [
        od.element.absolute_path() for od in cold.ods
    ]
    for ours, theirs in zip(warm.corpus, cold.corpus):
        assert ours.document.declaration == theirs.document.declaration
        assert tree_shape(ours.document.root) == tree_shape(theirs.document.root)
    # an OD points at a node of the warm trees, not at a copy
    nodes = {id(node) for source in warm.corpus for node in source.document.iter()}
    assert all(id(od.element) in nodes for od in warm.ods)
    assert warm.index.statistics() == cold.index.statistics()
    for od in cold.ods:
        assert [
            (m.object_id, m.similarity, m.path) for m in warm.match(od.object_id)
        ] == [
            (m.object_id, m.similarity, m.path) for m in cold.match(od.object_id)
        ]
    assert warm.detect().to_xml() == cold.detect().to_xml()


class TestFormat3:
    @pytest.mark.parametrize("corpus", ["example", "dataset1", "dataset3"])
    def test_warm_equals_cold(self, corpus, example_dir, tmp_path):
        if corpus == "example":
            spec = example_spec(example_dir)
        elif corpus == "dataset1":
            spec = write_corpus(
                tmp_path / "d1", build_dataset1(base_count=20, seed=7)
            )
        else:
            spec = write_corpus(
                tmp_path / "d3", build_dataset3(count=120, seed=11)
            )
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)
        warm = store.load(spec)
        assert_warm_equals_cold(warm, cold)

    def test_content_survives_item_for_item(self, example_dir, tmp_path):
        """Format 2 stored XML text, and the round trip merged the two
        text nodes a comment had split."""
        document = example_dir / "movies.xml"
        document.write_text(
            PAPER_EXAMPLE_XML.replace("Signs", "Sig<!-- split -->ns", 1),
            encoding="utf-8",
        )
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)
        warm = store.load(spec)
        split = [
            node.content
            for node in warm.corpus.sources[0].document.iter()
            if node.content == ("Sig", "ns")
        ]
        assert len(split) == 1
        assert_warm_equals_cold(warm, cold)

    def test_a_warm_load_tokenizes_no_document(
        self, example_dir, tmp_path, monkeypatch
    ):
        """Work count: the mapping file is XML and is read from the live
        spec; the stored XSD text is the only other thing parsed."""
        parsers = []
        create = expat.ParserCreate

        def counting(*args, **kwargs):
            parsers.append(args)
            return create(*args, **kwargs)

        store = IndexStore(tmp_path / "store")
        with_schema = example_spec(example_dir)
        bare = example_spec(example_dir)
        bare.schemas = []
        for spec in (with_schema, bare):
            store.save(spec, spec.build_session())
        monkeypatch.setattr(expat, "ParserCreate", counting)
        assert store.load(bare) is not None
        assert len(parsers) == 1  # the mapping file
        del parsers[:]
        assert store.load(with_schema) is not None
        assert len(parsers) == 2  # the mapping file and the stored XSD

    def test_an_od_without_an_element_round_trips(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        ods = list(cold.ods)
        ods[1] = ObjectDescription(ods[1].object_id, ods[1].tuples, None)
        detached = DetectionSession(
            cold.corpus, cold.mapping, cold.real_world_type, cold.config, ods=ods
        )
        store.save(spec, detached)
        warm = store.load(spec)
        assert [od.tuples for od in warm.ods] == [od.tuples for od in ods]
        assert warm.ods[1].element is None
        assert [warm.ods[i].element.absolute_path() for i in (0, 2)] == [
            ods[i].element.absolute_path() for i in (0, 2)
        ]
        assert warm.detect().identical_to(detached.detect())

    def test_only_od_elements_are_ranked(self, example_dir, tmp_path):
        spec = example_spec(example_dir)
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        digest = store.save(spec, cold)
        payload = json.loads(
            gzip.decompress(store._snapshot_path(digest).read_bytes())
        )
        order = list(cold.corpus.sources[0].document.iter())
        assert [(r["doc"], order[r["node"]]) for r in payload["ods"]] == [
            (0, od.element) for od in cold.ods
        ]
        assert [r["path"] for r in payload["ods"]] == [
            od.element.absolute_path() for od in cold.ods
        ]
        assert payload["format"] == FORMAT_VERSION == 5


def stored_payload(store, digest) -> dict:
    return json.loads(gzip.decompress(store._snapshot_path(digest).read_bytes()))


def assert_same_term_state(ours: IndexPartial, theirs: IndexPartial) -> None:
    """Equal term state, orders included: what a snapshot must carry."""
    assert (ours.total_objects, ours.q) == (theirs.total_objects, theirs.q)
    assert ours.occurrences == theirs.occurrences
    assert list(ours.objects_by_key) == list(theirs.objects_by_key)
    assert ours.objects_by_key == theirs.objects_by_key
    assert list(ours.value_indexes) == list(theirs.value_indexes)
    for key, value_index in ours.value_indexes.items():
        other = theirs.value_indexes[key]
        assert value_index._values == other._values
        assert value_index._ids == other._ids
        assert value_index._by_length == other._by_length
        assert list(value_index._buckets.items()) == list(other._buckets.items())
        assert value_index._repeats == other._repeats


class TestFormat5:
    """The ``index`` section: the term state a warm open adopts; the
    trees as sealed JSON texts that a warm open builds no element of."""

    @pytest.mark.parametrize("corpus", ["example", "dataset1", "dataset3"])
    def test_the_section_is_the_built_index(self, corpus, example_dir, tmp_path):
        if corpus == "example":
            spec = example_spec(example_dir)
        elif corpus == "dataset1":
            spec = write_corpus(tmp_path / "d1", build_dataset1(base_count=20, seed=7))
        else:
            spec = write_corpus(tmp_path / "d3", build_dataset3(count=120, seed=11))
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        section = stored_payload(store, store.save(spec, cold))["index"]
        state = cold.index._state
        assert (section["total_objects"], section["q"]) == (len(cold.ods), 2)
        assert [kind["key"] for kind in section["kinds"]] == list(state.value_indexes)
        for kind in section["kinds"]:
            key, value_index = kind["key"], state.value_indexes[kind["key"]]
            assert kind["values"] == value_index.values
            rows = [sorted(state.occurrences[(key, value)]) for value in kind["values"]]
            assert kind["rows"] == [row[0] if len(row) == 1 else row for row in rows]
            assert any(type(row) is list for row in kind["rows"]) or corpus == "example"
            assert kind["buckets"] == value_index._buckets
            assert list(kind["buckets"]) == list(value_index._buckets)
            assert list(kind["repeats"].items()) == list(value_index._repeats.items())
            assert set(kind) == {"key", "values", "buckets", "repeats", "rows"}
        assert any(kind["repeats"] for kind in section["kinds"])
        warm = store.load(spec)
        assert_same_term_state(warm.index._state, state)
        assert_warm_equals_cold(warm, cold)

    @pytest.mark.parametrize("kinds", [0, 1, 3])
    def test_the_file_is_one_gzip_member_of_one_json_dumps(self, kinds):
        """The writer encodes the section's kinds one at a time; the
        bytes it compresses are those of one ``json.dumps``."""
        payload = {
            "format": FORMAT_VERSION,
            "documents": ['[{},["a",{"k":"v"},["text"]]]'],
            "index": {
                "total_objects": 2,
                "q": 2,
                "kinds": [
                    {"key": f"K{n}", "values": ["ab", "b"], "rows": [{1, 0}, 1]}
                    for n in range(kinds)
                ],
            },
        }
        expected = json.dumps(
            payload, separators=(",", ":"), default=sorted
        ).encode("utf-8")
        data = store_module._gzipped_json(payload)
        assert gzip.decompress(data) == zlib.decompress(data, 31) == expected

    def test_a_warm_open_counts_no_gram_and_scans_no_tuple(
        self, example_dir, tmp_path, monkeypatch
    ):
        """Work count: no q-gram is cut, no bucket appended, no OD tuple
        mapped to its comparison key."""
        spec = write_corpus(tmp_path / "d1", build_dataset1(base_count=20, seed=7))
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm open rebuilt index state")

        monkeypatch.setattr(qgram_module, "qgrams", forbidden)
        monkeypatch.setattr(QGramIndex, "_register", forbidden)
        monkeypatch.setattr(TypeMapping, "comparison_key", forbidden)
        warm = store.load(spec)
        monkeypatch.undo()
        assert_warm_equals_cold(warm, cold)

    def test_a_format_4_snapshot_is_a_miss_that_save_overwrites(self, saved):
        """What the previous format's writer left: trees as records, ODs
        without paths, no seal, format 4 in body and manifest."""
        store, spec, path, intact, cold = saved
        digest = path.name[: -len(".json.gz")]
        old = json.loads(gzip.decompress(intact))
        old["documents"] = [json.loads(text) for text in old["documents"]]
        for record in old["ods"]:
            del record["path"]
        del old["seal"]
        old["format"] = 4
        rewrite(path, old)
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = 4
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert store.load(spec) is None
        assert not store.contains(spec) and store.holds(digest)
        assert store.list() == [] and store.spec_for(digest) is None
        assert store.save(spec, spec.build_session()) == digest
        assert store.contains(spec)
        assert stored_payload(store, digest)["format"] == 5
        assert fingerprint(store.load(spec)) == cold

    @pytest.mark.parametrize("corpus", ["example", "dataset3"])
    def test_trees_are_sealed_record_texts(self, corpus, example_dir, tmp_path):
        if corpus == "example":
            spec = example_spec(example_dir)
        else:
            spec = write_corpus(tmp_path / "d3", build_dataset3(count=120, seed=11))
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        digest = store.save(spec, cold)
        payload = stored_payload(store, digest)
        (text,) = payload["documents"]
        assert type(text) is str
        document = cold.corpus.sources[0].document
        assert json.loads(text) == json.loads(
            json.dumps(document_record(document), default=element_record)
        )
        assert payload["seal"] == store_module._seal(
            digest, payload["documents"], payload["ods"]
        )
        assert list(payload)[-1] == "index"  # the writer streams it last

    def test_the_seal_frames_its_entries(self):
        """Bytes moved from one entry to the next change the seal."""
        ods = [{"id": 0, "doc": 0, "node": 1, "path": "/a/b"}]
        seal = store_module._seal("k", ["[{},", '["a",{},[]]]'], ods)
        assert seal != store_module._seal("k", ["[{},[", '"a",{},[]]]'], ods)
        assert seal != store_module._seal("k[{},", ['["a",{},[]]]', ""], ods)
        moved = [{"id": 0, "doc": 0, "node": 1, "path": "/a/b"}]
        assert seal == store_module._seal("k", ["[{},", '["a",{},[]]]'], moved)
        moved[0]["node"] = 11
        moved[0]["path"] = "/b"
        assert seal != store_module._seal("k", ["[{},", '["a",{},[]]]'], moved)

    @pytest.mark.parametrize("corpus", ["example", "dataset3"])
    def test_a_warm_open_builds_no_element(
        self, corpus, example_dir, tmp_path, decodes
    ):
        """``load`` and ``statistics()`` leave no more live elements
        than they found (the mapping file's tree is garbage) and decode
        no tree."""
        if corpus == "example":
            spec = example_spec(example_dir)
        else:
            spec = write_corpus(tmp_path / "d3", build_dataset3(count=120, seed=11))
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)
        statistics = cold.index.statistics()
        del cold
        before = live_elements()
        warm = store.load(spec)
        assert warm.index.statistics() == statistics
        assert live_elements() == before
        assert decodes == []
        assert all(not source.document.decoded for source in warm.corpus)

    #: trees a writer sealed although they do not decode: the first read
    #: raises, naming the snapshot
    SEALED = {
        "tree text truncated": lambda p: p["documents"].__setitem__(
            0, p["documents"][0][:-9]
        ),
        "tag emptied": lambda p: edit_tree(p, lambda r: r[1].__setitem__(0, "")),
        "attribute value made a number": lambda p: edit_tree(
            p, lambda r: r[1][2][1][1].update(id=5)
        ),
        "declaration value made a number": lambda p: edit_tree(
            p, lambda r: r[0].update(version=1.0)
        ),
        "content item a number": lambda p: edit_tree(p, lambda r: r[1][2].append(3)),
        "node out of range": lambda p: p["ods"][0].update(node=10**6),
        "path of another node": lambda p: p["ods"][0].update(
            path=p["ods"][1]["path"]
        ),
    }

    @pytest.mark.parametrize("edit", sorted(SEALED))
    def test_a_sealed_malformed_tree_raises_on_first_read(self, saved, edit):
        store, spec, path, intact, cold = saved
        payload = json.loads(gzip.decompress(intact))
        self.SEALED[edit](payload)
        payload["seal"] = store_module._seal(
            payload["key"], payload["documents"], payload["ods"]
        )
        rewrite(path, payload)
        warm = store.load(spec)
        assert warm is not None
        # what reads no tree still answers
        assert [m.path for m in warm.match(0)] == [
            m.path for m in spec.build_session().match(0)
        ]
        for read in (
            lambda: warm.corpus.sources[0].document.root,
            lambda: warm.ods[1].element,
            lambda: warm.corpus.sources[0].document.declaration,
        ):
            with pytest.raises(XMLError, match=f"snapshot {path}"):
                read()
        assert not warm.corpus.sources[0].document.decoded


def edit_tree(payload, edit) -> None:
    """Apply ``edit`` to the first document's record, stored back as
    text the way the writer stores it."""
    record = json.loads(payload["documents"][0])
    edit(record)
    payload["documents"][0] = json.dumps(record, separators=(",", ":"))


def live_elements() -> int:
    gc.collect()
    return sum(1 for item in gc.get_objects() if type(item) is Element)


def exact(matches) -> list:
    """A ``match()`` answer with every similarity to the bit."""
    return [(m.object_id, m.similarity.hex(), m.path) for m in matches]


# ----------------------------------------------------------------------
# Trees on first read: which reads of a warm session build a tree
# ----------------------------------------------------------------------
EXTENSIONS = [
    '<moviedoc><movie id="4"><title>The Matrix</title><year>1999</year>'
    "<actor><name>Keanu Reeves</name><role>Neo</role></actor></movie>"
    '<movie id="5"><title>Sign</title><year>2002</year></movie></moviedoc>',
    '<moviedoc><movie id="6"><title>Matrix Reloaded</title><year>2003</year>'
    "</movie><movie id=\"7\"><title>Signs</title><year>2002</year>"
    "<actor><name>Mel Gibson</name><role>Graham</role></actor></movie></moviedoc>",
]


def traffic_corpus(corpus, example_dir, tmp_path):
    """A spec with a C2 band, a spec of the same corpus without XSD,
    two extension documents and a foreign candidate document."""
    if corpus == "example":
        spec = example_spec(example_dir)
        spec.possible_threshold = 0.3
        bare = example_spec(example_dir)
        bare.schemas = []
        foreign = EXTENSIONS[0].replace("Neo", "Neo the One")
        return spec, bare, EXTENSIONS, foreign
    dataset = build_dataset3(count=300, seed=11)
    spec = write_corpus(tmp_path / "d3", dataset)
    spec.possible_threshold = spec.theta_cand / 2
    root = dataset.sources[0].document.root
    other = build_dataset3(count=120, seed=5).sources[0].document.root
    texts = [
        serialize(Document(Element(root.tag, content=[r.copy() for r in records])))
        for records in (other.children[:2], other.children[2:4])
    ]
    foreign = serialize(Document(Element(root.tag, content=[root.children[7].copy()])))
    return spec, spec, texts, foreign


def foreign_candidate(text):
    return parse(text).root.children[0]


def answers(session, extensions) -> list:
    """Every answer the lookups, batch run and writes give, to the bit."""
    out = []
    for include_possible in (False, True):
        out.append([
            exact(session.match(od.object_id, include_possible=include_possible))
            for od in session.ods
        ])
    result = session.detect()
    out.append([
        (p.left, p.right, p.similarity.hex(), p.label) for p in result.pairs
    ])
    out += [result.to_xml(), result.cluster_paths()]
    for pair in result.duplicate_pairs:
        why = session.explain(pair.left, pair.right)
        out.append((
            why.similarity.hex(), why.similar_pairs, why.contradictory_pairs,
            why.non_specified_left, why.non_specified_right,
            why.set_soft_idf_similar.hex(), why.set_soft_idf_contradictory.hex(),
        ))
    for text in extensions:
        update = session.extend(parse(text))
        out.append((
            [od.object_id for od in update.added], update.assignments,
            update.duplicate_clusters,
        ))
        out += [exact(session.match(od.object_id)) for od in update.added]
    return out


class TestTreesOnFirstRead:
    """A warm session decodes a tree only for a read that needs one."""

    @pytest.mark.parametrize("corpus", ["example", "dataset3"])
    def test_reads_that_need_no_tree_decode_none(
        self, corpus, example_dir, tmp_path, decodes, capsys
    ):
        spec, _, extensions, _ = traffic_corpus(corpus, example_dir, tmp_path)
        store = IndexStore(tmp_path / "store")
        cold = spec.build_session()
        store.save(spec, cold)
        spec_path = str(tmp_path / "traffic.json")
        spec.save(spec_path)
        target = cold.ods[-1].element.absolute_path()
        argv = ["match", "--spec", spec_path, "--path", target]
        assert cli_main(argv) == 0
        cold_cli = capsys.readouterr().out
        expected = answers(cold, extensions)
        assert any(expected[1]) and expected[4]  # partners and clusters
        assert decodes == []
        assert cli_main([*argv, "--store", str(store.root)]) == 0
        assert capsys.readouterr().out == cold_cli
        warm = store.load(spec)
        assert answers(warm, extensions) == expected
        assert decodes == []

    @pytest.mark.parametrize("corpus", ["example", "dataset3"])
    def test_reads_that_need_a_tree_decode_each_once(
        self, corpus, example_dir, tmp_path, decodes
    ):
        spec, bare, _, foreign = traffic_corpus(corpus, example_dir, tmp_path)
        store = IndexStore(tmp_path / "store")
        for each in {id(spec): spec, id(bare): bare}.values():
            store.save(each, each.build_session())
        cold = bare.build_session()
        # a foreign element without XSD: schema inference reads the tree
        warm = store.load(bare)
        for _ in range(2):
            assert exact(warm.match(foreign_candidate(foreign))) == exact(
                cold.match(foreign_candidate(foreign))
            )
            assert len(decodes) == 1
        # gold standard: every OD's element
        warm = store.load(spec)
        del decodes[:]
        assert gold_pairs(warm.ods) == gold_pairs(cold.ods)
        assert gold_pairs(warm.ods) == gold_pairs(cold.ods)
        assert len(decodes) == 1
        if corpus == "dataset3":
            assert gold_pairs(cold.ods)
        # walking the document
        warm = store.load(spec)
        del decodes[:]
        (source,) = warm.corpus
        nodes = list(source.document.iter())
        assert len(decodes) == 1
        assert list(source.document.iter()) == nodes
        cold_nodes = cold.corpus.sources[0].document.iter()
        ranks = {id(node): rank for rank, node in enumerate(cold_nodes)}
        for ours, theirs in zip(warm.ods, cold.ods):
            assert ours.element is nodes[ranks[id(theirs.element)]]
            assert ours.path == theirs.path == theirs.element.absolute_path()
        # a corpus element now resolves to its OD
        od = warm.ods[1]
        assert exact(warm.match(od.element)) == exact(warm.match(od.object_id))
        assert len(decodes) == 1


class TestAdoptedIndexThroughWrites:
    """A loaded session's index is the snapshot's term state, adopted;
    writes fold deltas into it like into a built one."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        corpus=st.lists(st.integers(0, 15), min_size=1, max_size=5, unique=True),
        deltas=st.lists(st.lists(st.integers(0, 15), max_size=3), max_size=4),
    )
    def test_random_extend_sequences_answer_like_a_cold_session(
        self, corpus, deltas
    ):
        """Deltas are drawn from the corpus's own records (dirty
        duplicates, exact repeats, empty documents among them)."""
        dataset, records = class_fuzz_dataset()
        with tempfile.TemporaryDirectory() as directory:
            base = Path(directory)
            document = source_of([records[i] for i in corpus]).document
            (base / "cds.xml").write_text(serialize(document), encoding="utf-8")
            (base / "cds.xsd").write_text(CD_XSD, encoding="utf-8")
            (base / "mapping.xml").write_text(
                dataset.mapping.to_xml(), encoding="utf-8"
            )
            spec = RunSpec(
                documents=[str(base / "cds.xml")],
                mapping=str(base / "mapping.xml"),
                real_world_type=dataset.real_world_type,
                schemas=[str(base / "cds.xsd")],
            )
            store = IndexStore(base / "store")
            store.save(spec, spec.build_session())
            warm = store.load(spec)
            sources = list(spec.load_sources())
        assert warm is not None
        for delta in deltas:
            sources.append(source_of([records[i] for i in delta]))
            warm.extend(sources[-1])
        cold = DetectionSession(
            Corpus(sources), warm.mapping, warm.real_world_type, spec.to_config()
        )
        assert_same_term_state(warm.index._state, cold.index._state)
        for od in cold.ods:
            assert exact(warm.match(od.object_id)) == exact(
                cold.match(od.object_id)
            ), od.object_id
        ours, theirs = warm.detect(), cold.detect()
        assert [
            (pair.left, pair.right, pair.similarity.hex(), pair.label)
            for pair in ours.pairs
        ] == [
            (pair.left, pair.right, pair.similarity.hex(), pair.label)
            for pair in theirs.pairs
        ]
        assert ours.clusters == theirs.clusters
        assert warm.index.statistics() == cold.index.statistics()
        naive = NaiveIndex(list(cold.ods), cold.mapping, cold.config.theta_tuple)
        for term in warm.index.block_terms():
            assert warm.index.similar_values(*term) == naive.similar_values(*term)


# ----------------------------------------------------------------------
# A snapshot that cannot be decoded is a miss
# ----------------------------------------------------------------------
def fingerprint(session):
    return (
        [(od.object_id, od.tuples, od.element.absolute_path()) for od in session.ods],
        session.index.statistics(),
        session.detect().to_xml(),
    )


@pytest.fixture()
def saved(example_dir, tmp_path):
    """A saved snapshot: (store, spec, path, bytes, cold fingerprint)."""
    spec = example_spec(example_dir)
    store = IndexStore(tmp_path / "store")
    cold = spec.build_session()
    path = store._snapshot_path(store.save(spec, cold))
    return store, spec, path, path.read_bytes(), fingerprint(cold)


def rewrite(path, payload):
    path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))


def two_corpora(tmp_path):
    """A store and the specs of two corpora, A (2 records) and B (3)."""
    mapping = (
        '<mapping><type name="DISC"><xpath>/db/cd</xpath></type>'
        '<type name="TITLE"><xpath>/db/cd/title</xpath></type></mapping>'
    )
    (tmp_path / "mapping.xml").write_text(mapping, encoding="utf-8")
    specs = []
    for name, titles in (("a", ["Alpha", "Alpah"]), ("b", ["Alpha", "Alpah", "Omega"])):
        cds = "".join(f"<cd><title>{title}</title></cd>" for title in titles)
        (tmp_path / f"{name}.xml").write_text(f"<db>{cds}</db>", encoding="utf-8")
        specs.append(RunSpec(
            documents=[str(tmp_path / f"{name}.xml")],
            mapping=str(tmp_path / "mapping.xml"),
            real_world_type="DISC",
        ))
    return IndexStore(tmp_path / "store"), *specs


def year_repeats(payload) -> dict:
    """The running example's YEAR repeats, ``{"99": [[0], [2]]}``."""
    return payload["index"]["kinds"][1]["repeats"]


class TestDamagedSnapshot:
    def test_truncated_anywhere(self, saved):
        store, spec, path, intact, cold = saved
        rng = random.Random(20)
        offsets = [0, 1, 9, 10, len(intact) - 8, len(intact) - 1]
        offsets += [rng.randrange(len(intact)) for _ in range(34)]
        for offset in offsets:
            path.write_bytes(intact[:offset])
            assert store.load(spec) is None, offset

    def test_one_byte_flipped_anywhere(self, saved):
        """``None`` or the cold session (a flip in the gzip header's
        mtime or OS byte changes nothing) — never another exception."""
        store, spec, path, intact, cold = saved
        rng = random.Random(20)
        misses = 0
        for _ in range(200):
            offset = rng.randrange(len(intact))
            damaged = bytearray(intact)
            damaged[offset] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(damaged))
            warm = store.load(spec)
            if warm is None:
                misses += 1
            else:
                assert fingerprint(warm) == cold, offset
        assert misses > 150

    def test_rebuild_overwrites_the_damaged_file(self, saved):
        store, spec, path, intact, cold = saved
        path.write_bytes(intact[: len(intact) // 2])
        assert store.contains(spec) and store.load(spec) is None
        store.save(spec, spec.build_session())
        assert fingerprint(store.load(spec)) == cold
        assert len(list(store.root.iterdir())) == 2

    def test_contains_is_the_catalog_answer_not_the_files_existence(self, saved):
        """``contains()`` reads the manifest's format (the body when there
        is no manifest), as ``list()`` does; it used to say yes to any
        file under the key."""
        store, spec, path, intact, _ = saved
        digest = path.name[: -len(".json.gz")]
        manifest_path = store._manifest_path(digest)
        manifest = manifest_path.read_text(encoding="utf-8")
        assert store.contains(spec) and store.holds(digest)
        # another format version, in the manifest and in the body
        aged = json.loads(manifest)
        aged["format"] = FORMAT_VERSION - 1
        manifest_path.write_text(json.dumps(aged), encoding="utf-8")
        stale = json.loads(gzip.decompress(intact))
        stale["format"] = FORMAT_VERSION - 1
        rewrite(path, stale)
        assert not store.contains(spec) and store.holds(digest)
        # no manifest: the body answers — sound, truncated, not a payload
        manifest_path.unlink()
        path.write_bytes(intact)
        assert store.contains(spec)
        for damaged in (intact[: len(intact) // 2], b"", gzip.compress(b"[1, 2]")):
            path.write_bytes(damaged)
            assert not store.contains(spec) and store.holds(digest)
            assert store.list() == []
        path.unlink()
        assert not store.contains(spec) and not store.holds(digest)

    def test_a_snapshot_filed_under_another_key_is_a_miss(self, tmp_path):
        """A's snapshot copied to B's digest used to load as B's session."""
        store, spec_a, spec_b = two_corpora(tmp_path)
        digest_a = store.save(spec_a, spec_a.build_session())
        digest_b = store.key_for(spec_b)
        store._snapshot_path(digest_b).write_bytes(
            store._snapshot_path(digest_a).read_bytes()
        )
        assert store.load(spec_b) is None
        assert not store.contains(spec_b) and store.holds(digest_b)
        assert [info.digest for info in store.list()] == [digest_a]
        store.save(spec_b, spec_b.build_session())
        assert [od.object_id for od in store.load(spec_b).ods] == [0, 1, 2]

    def test_another_snapshots_seal_is_a_miss(self, tmp_path):
        store, spec_a, spec_b = two_corpora(tmp_path)
        digest_a = store.save(spec_a, spec_a.build_session())
        digest_b = store.save(spec_b, spec_b.build_session())
        path_b = store._snapshot_path(digest_b)
        payload = stored_payload(store, digest_b)
        payload["seal"] = stored_payload(store, digest_a)["seal"]
        rewrite(path_b, payload)
        assert store.load(spec_b) is None
        assert len(store.load(spec_a).ods) == 2

    def test_a_manifest_filed_under_another_key_is_ignored(self, tmp_path):
        """A's manifest under B's digest used to hand out A's spec and
        catalog entry; the snapshot beside it answers instead."""
        store, spec_a, spec_b = two_corpora(tmp_path)
        digest_a = store.save(spec_a, spec_a.build_session())
        digest_b = store.save(spec_b, spec_b.build_session())
        store._manifest_path(digest_b).write_bytes(
            store._manifest_path(digest_a).read_bytes()
        )
        assert store.spec_for(digest_b) is None
        assert store.key_for(store.spec_for(digest_a)) == digest_a
        catalog = {info.digest: info.objects for info in store.list()}
        assert catalog == {digest_a: 2, digest_b: 3}
        assert store.contains(spec_b) and len(store.load(spec_b).ods) == 3

    @pytest.mark.parametrize(
        "damage",
        [
            b"",
            b"not gzip at all",
            gzip.compress(b"not json"),
            gzip.compress(b"\xff\xfe"),
            gzip.compress(b"[1, 2]"),
            gzip.compress(b'"format"'),
        ],
        # gzip stamps the time into its header: name the cases instead
        ids=["empty", "not-gzip", "not-json", "not-utf8", "a-list", "a-string"],
    )
    def test_not_a_payload(self, saved, damage):
        store, spec, path, _, _ = saved
        path.write_bytes(damage)
        assert store.load(spec) is None
        assert store.list() != []  # the manifest still catalogs it
        store._manifest_path(path.name[: -len(".json.gz")]).unlink()
        assert store.list() == []  # and the slow path reads a miss too

    @pytest.mark.parametrize(
        "section",
        ["format", "real_world_type", "documents", "schemas", "ods", "seal", "index"],
    )
    def test_missing_section(self, saved, section):
        store, spec, path, intact, _ = saved
        payload = json.loads(gzip.decompress(intact))
        del payload[section]
        rewrite(path, payload)
        assert store.load(spec) is None

    #: one edit of a sound payload per validation branch of the loader
    EDITS = {
        "real_world_type not a string": lambda p: p.update(real_world_type=7),
        "documents not a list": lambda p: p.update(documents={"0": p["documents"][0]}),
        "schemas not a list": lambda p: p.update(schemas="movies.xsd"),
        "schemas of another length": lambda p: p["schemas"].append(None),
        "schema text not a string": lambda p: p.update(schemas=[["<xs/>"]]),
        "schema text not an XSD": lambda p: p.update(schemas=["<a><b></a>"]),
        "document a record, not its text": lambda p: p["documents"].__setitem__(
            0, json.loads(p["documents"][0])
        ),
        "document null": lambda p: p["documents"].__setitem__(0, None),
        "tree text truncated": lambda p: p["documents"].__setitem__(
            0, p["documents"][0][:-9]
        ),
        "tree text a byte changed": lambda p: p["documents"].__setitem__(
            0, p["documents"][0].replace("Matrix", "Matrik", 1)
        ),
        "document not a pair": lambda p: edit_tree(p, lambda r: r.append("extra")),
        "declaration not a dict": lambda p: edit_tree(
            p, lambda r: r.__setitem__(0, [])
        ),
        "declaration value a number": lambda p: edit_tree(
            p, lambda r: r[0].update(version=1.0)
        ),
        "element not a triple": lambda p: edit_tree(p, lambda r: r[1].pop()),
        "empty tag": lambda p: edit_tree(p, lambda r: r[1].__setitem__(0, "")),
        "tag not a string": lambda p: edit_tree(p, lambda r: r[1].__setitem__(0, 5)),
        "attributes not a dict": lambda p: edit_tree(
            p, lambda r: r[1].__setitem__(1, [])
        ),
        "attribute value a number": lambda p: edit_tree(
            p, lambda r: r[1][2][1][1].update(id=5)
        ),
        "content not a list": lambda p: edit_tree(
            p, lambda r: r[1].__setitem__(2, "text")
        ),
        "content item a number": lambda p: edit_tree(p, lambda r: r[1][2].append(3)),
        "content item null": lambda p: edit_tree(p, lambda r: r[1][2].append(None)),
        "content item an object": lambda p: edit_tree(p, lambda r: r[1][2].append({})),
        "nested element malformed": lambda p: edit_tree(
            p, lambda r: r[1][2][1].__setitem__(0, None)
        ),
        "seal missing": lambda p: p.pop("seal"),
        "seal not a string": lambda p: p.update(seal=[p["seal"]]),
        "seal of the same trees under another key": lambda p: p.update(
            seal=store_module._seal("0" * 64, p["documents"], p["ods"])
        ),
        "path missing": lambda p: p["ods"][0].pop("path"),
        "path not a string": lambda p: p["ods"][0].update(path=None),
        "path edited": lambda p: p["ods"][0].update(path="/moviedoc/movie[3]"),
        "ods not a list of objects": lambda p: p.update(ods=[[0, [], 0, 1]]),
        "ods null": lambda p: p.update(ods=None),
        "id missing": lambda p: p["ods"][0].pop("id"),
        "id not an int": lambda p: p["ods"][0].update(id="0"),
        "id a bool": lambda p: p["ods"][0].update(id=True),
        "tuples missing": lambda p: p["ods"][0].pop("tuples"),
        "tuple too short": lambda p: p["ods"][0]["tuples"].append(["value"]),
        "tuple too long": lambda p: p["ods"][0]["tuples"].append(["v", "n", "x"]),
        "tuple value not a string": lambda p: p["ods"][0]["tuples"].append([1, "n"]),
        "tuple name not a string": lambda p: p["ods"][0]["tuples"].append(["v", None]),
        "doc without node": lambda p: p["ods"][0].pop("node"),
        "doc out of range": lambda p: p["ods"][0].update(doc=1),
        "doc negative": lambda p: p["ods"][0].update(doc=-1),
        "doc not an int": lambda p: p["ods"][0].update(doc="0"),
        "doc a bool": lambda p: p["ods"][0].update(doc=False),
        "node out of range": lambda p: p["ods"][0].update(node=10**6),
        "node negative": lambda p: p["ods"][0].update(node=-1),
        "node a float": lambda p: p["ods"][0].update(node=1.0),
        "node null": lambda p: p["ods"][0].update(node=None),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_malformed_payload(self, saved, edit):
        store, spec, path, intact, cold = saved
        payload = json.loads(gzip.decompress(intact))
        sound = copy.deepcopy(payload)
        self.EDITS[edit](payload)
        assert json.dumps(payload) != json.dumps(sound)  # False == 0 in Python
        rewrite(path, payload)
        assert store.load(spec) is None
        rewrite(path, sound)  # the harness itself writes a loadable file
        assert fingerprint(store.load(spec)) == cold


    #: one edit of the ``index`` section per validation branch; the
    #: running example's kinds: TITLE ("The Matrix", "Matrix", "Signs"),
    #: YEAR ("1999" repeats "99": ``{"99": [[0], [2]]}``, "2002"),
    #: ACTORNAME, ACTORROLE
    INDEX_EDITS = {
        "index not an object": lambda p: p.update(index=[]),
        "total_objects not the OD count": lambda p: p["index"].update(total_objects=4),
        "total_objects a float": lambda p: p["index"].update(total_objects=3.0),
        "q not the index's": lambda p: p["index"].update(q=3),
        "kinds not a list": lambda p: p["index"].update(kinds={}),
        "kind without rows": lambda p: p["index"]["kinds"][0].pop("rows"),
        "key not a string": lambda p: p["index"]["kinds"][0].update(key=0),
        "key twice": lambda p: p["index"]["kinds"].append(p["index"]["kinds"][0]),
        "values not a list": lambda p: p["index"]["kinds"][0].update(values="ab"),
        "value not a string": lambda p: p["index"]["kinds"][0]["values"].__setitem__(
            2, 5
        ),
        "values not distinct": lambda p: p["index"]["kinds"][0]["values"].__setitem__(
            1, "The Matrix"
        ),
        "rows shorter than values": lambda p: p["index"]["kinds"][0]["rows"].pop(),
        "rows not a list": lambda p: p["index"]["kinds"][0].update(rows={}),
        "row a string": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(0, "0"),
        "row an object": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(0, {}),
        "row a float": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(0, 0.0),
        "row a bool": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(1, True),
        "row null": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(0, None),
        "row empty": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(0, []),
        "row an id no OD has": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(
            0, 7
        ),
        "row holds an id no OD has": lambda p: p["index"]["kinds"][0][
            "rows"
        ].__setitem__(0, [0, 7]),
        "row holds a float": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(
            0, [0.0, 1]
        ),
        "row holds a bool": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(
            1, [True, 2]
        ),
        "row holds a list": lambda p: p["index"]["kinds"][0]["rows"].__setitem__(
            1, [[1]]
        ),
        "buckets not an object": lambda p: p["index"]["kinds"][0].update(buckets=[]),
        "bucket not a list": lambda p: p["index"]["kinds"][0]["buckets"].update(Ma=0),
        "bucket empty": lambda p: p["index"]["kinds"][0]["buckets"].update(Ma=[]),
        "bucket id out of range": lambda p: p["index"]["kinds"][0]["buckets"][
            "Ma"
        ].append(3),
        "bucket id negative": lambda p: p["index"]["kinds"][0]["buckets"][
            "Ma"
        ].insert(0, -1),
        "bucket id a float": lambda p: p["index"]["kinds"][0]["buckets"].update(
            Ma=[0, 1.0]
        ),
        "bucket descending": lambda p: p["index"]["kinds"][0]["buckets"][
            "Ma"
        ].reverse(),
        "bucket repeats an id": lambda p: p["index"]["kinds"][0]["buckets"][
            "Ma"
        ].append(1),
        "repeats not an object": lambda p: p["index"]["kinds"][1].update(repeats=[]),
        "repeated gram without a bucket": lambda p: year_repeats(p).update(
            zz=[[0], [2]]
        ),
        "repeat a string": lambda p: year_repeats(p).update({"99": "02"}),
        "repeat not a pair": lambda p: year_repeats(p)["99"].append([]),
        "repeat ids not a list": lambda p: year_repeats(p)["99"].__setitem__(0, 0),
        "repeat ids empty": lambda p: year_repeats(p).update({"99": [[], []]}),
        "repeat counts not a list": lambda p: year_repeats(p)["99"].__setitem__(1, 2),
        "repeat counts not parallel": lambda p: year_repeats(p)["99"][1].append(2),
        "repeat id out of range": lambda p: year_repeats(p)["99"][0].__setitem__(0, 2),
        "repeat id a bool": lambda p: year_repeats(p)["99"][0].__setitem__(0, False),
        "repeat id twice": lambda p: year_repeats(p).update({"99": [[0, 0], [2, 2]]}),
        "repeat ids descending": lambda p: year_repeats(p).update(
            {"99": [[1, 0], [2, 2]]}
        ),
        "repeat count 1": lambda p: year_repeats(p)["99"][1].__setitem__(0, 1),
        "repeat count a float": lambda p: year_repeats(p)["99"][1].__setitem__(0, 2.0),
        "two ODs share an id": lambda p: p["ods"][1].update(id=0),
    }

    @pytest.mark.parametrize("edit", sorted(INDEX_EDITS))
    def test_malformed_index_section(self, saved, edit, capsys):
        """A miss for ``load``, and a rebuild with a note for the CLI."""
        store, spec, path, intact, cold = saved
        spec_path = write_cli_spec(store.root.parent)
        argv = ["dedup", "--spec", spec_path, "--store", str(store.root)]
        assert cli_main(argv) == 0
        warm = capsys.readouterr()
        assert "warm start" in warm.err
        payload = json.loads(gzip.decompress(intact))
        sound = copy.deepcopy(payload)
        self.INDEX_EDITS[edit](payload)
        assert json.dumps(payload) != json.dumps(sound)
        rewrite(path, payload)
        assert store.load(spec) is None
        assert cli_main(argv) == 0
        rebuilt = capsys.readouterr()
        assert f"snapshot {path.name[:12]} unreadable, rebuilding" in rebuilt.err
        assert rebuilt.out == warm.out
        rewrite(path, sound)  # the harness itself writes a loadable file
        assert fingerprint(store.load(spec)) == cold

    def test_the_index_section_damaged_in_the_file(self, saved):
        """The truncation and byte-flip fuzz over the bytes that encode
        the ``index`` section: the payload's last section, so the tail
        of the gzip stream past what the payload without it takes."""
        store, spec, path, intact, cold = saved
        payload = json.loads(gzip.decompress(intact))
        del payload["index"]
        start = len(gzip.compress(json.dumps(payload).encode("utf-8"))) - 8
        assert 0 < start < len(intact) - 300
        rng = random.Random(45)
        for offset in [rng.randrange(start, len(intact)) for _ in range(40)]:
            path.write_bytes(intact[:offset])
            assert store.load(spec) is None, offset
        misses = 0
        for _ in range(200):
            offset = rng.randrange(start, len(intact))
            damaged = bytearray(intact)
            damaged[offset] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(damaged))
            warm = store.load(spec)
            if warm is None:
                misses += 1
            else:
                assert fingerprint(warm) == cold, offset
        assert misses > 150


# ----------------------------------------------------------------------
# What sessions under the removed compact encoding left behind
# ----------------------------------------------------------------------
def packed(typecode: str, values) -> dict:
    """An integer array the way the compact writer stored one."""
    data = array(typecode, values)
    return {
        "typecode": typecode,
        "itemsize": data.itemsize,
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def posting_rows(rows, typecode: str) -> dict:
    offsets, data = [0], []
    for row in rows:
        data.extend(row)
        offsets.append(len(data))
    return {"offsets": packed("Q", offsets), "data": packed(typecode, data)}


def compact_index_section(index) -> dict:
    """The ``index`` section a compact session added to its format-3
    snapshot: interned string tables, packed term codes and posting
    arrays, and per kind the value index's frozen gram rows."""
    occurrences = index._state.occurrences
    keys = sorted({key for key, _ in occurrences})
    values = sorted({value for _, value in occurrences})
    terms = sorted(
        (keys.index(key) << 32 | values.index(value), sorted(ids))
        for (key, value), ids in occurrences.items()
    )
    value_indexes = []
    for key in sorted(index._state.value_indexes):
        value_index = index._state.value_indexes[key]
        held = value_index.values
        grams = [Counter(qgrams(value, value_index.q)) for value in held]
        vocabulary = sorted({gram for counter in grams for gram in counter})
        rows = [sorted((vocabulary.index(g), n) for g, n in c.items()) for c in grams]
        lengths = sorted({len(value) for value in held})
        value_indexes.append({"key": key, "index": {
            "strategy": "qgram",
            "q": value_index.q,
            "values": held,
            "state": {
                "order": packed("I", sorted(range(len(held)), key=held.__getitem__)),
                "grams": {
                    "vocabulary": vocabulary,
                    "codes": posting_rows(([c for c, _ in r] for r in rows), "I"),
                    "counts": posting_rows(([n for _, n in r] for r in rows), "I"),
                },
                "length_keys": packed("I", lengths),
                "length_rows": posting_rows(
                    ([i for i, v in enumerate(held) if len(v) == n] for n in lengths),
                    "I",
                ),
            },
        }})
    return {
        "encoding": "compact",
        "strategy": index.strategy,
        "q": index.q,
        "byteorder": sys.byteorder,
        "total_objects": index.total_objects,
        "theta_tuple": index.theta_tuple,
        "terms": {
            "keys": keys,
            "values": values,
            "terms": packed("Q", [code for code, _ in terms]),
            "postings": posting_rows((ids for _, ids in terms), "i"),
            "key_postings": posting_rows(
                (sorted(index.objects_with_key(key)) for key in keys), "i"
            ),
        },
        "value_indexes": value_indexes,
    }


class TestCompactLeftovers:
    def test_a_snapshot_with_a_compact_index_section_is_a_miss(self, saved):
        """The compact writer's ``index`` section where format 4 keeps
        its own: a section load cannot adopt, so a miss and a rebuild."""
        store, spec, path, intact, cold = saved
        payload = json.loads(gzip.decompress(intact))
        payload["index"] = compact_index_section(spec.build_session().index)
        rewrite(path, payload)
        manifest_path = store._manifest_path(payload["key"])
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["index_encoding"] = "compact"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        assert store.load(spec) is None
        # still cataloged, from the manifest, whose spec no longer builds
        assert [info.digest for info in store.list()] == [payload["key"]]
        assert store.contains(spec)
        assert store.spec_for(payload["key"]) is None
        # the rebuild overwrites it
        assert store.save(spec, spec.build_session()) == payload["key"]
        warm = store.load(spec)
        assert fingerprint(warm) == cold
        reference = spec.build_session()
        for od in reference.ods:
            assert [
                (m.object_id, m.similarity, m.path) for m in warm.match(od.object_id)
            ] == [
                (m.object_id, m.similarity, m.path)
                for m in reference.match(od.object_id)
            ]
        assert store.spec_for(payload["key"]) is not None

    def test_the_compact_value_raises_everywhere_it_was_accepted(self, example_dir):
        from repro.core import DogmatixConfig
        from repro.core.index import CorpusIndex, IndexPartial
        from repro.framework import TypeMapping

        with pytest.raises(ValueError, match="compact index encoding was removed"):
            RunSpec(**{**example_spec(example_dir).to_dict(), "index_encoding": "compact"})
        with pytest.raises(ValueError, match="compact index encoding was removed"):
            DogmatixConfig(index_encoding="compact")
        with pytest.raises(ValueError, match="compact index encoding was removed"):
            CorpusIndex((), TypeMapping(), 0.25, encoding="compact")
        with pytest.raises(ValueError, match="compact index encoding was removed"):
            IndexPartial.from_ods((), TypeMapping(), encoding="compact")
        # the one value each name still takes
        assert example_spec(example_dir).index_encoding is None
        assert RunSpec(
            **{**example_spec(example_dir).to_dict(), "index_encoding": "dict"}
        ).to_config().index_encoding == "dict"
        assert CorpusIndex((), TypeMapping(), 0.25, encoding="dict").encoding == "dict"
        assert IndexPartial.from_ods((), TypeMapping(), encoding="dict").total_objects == 0


class TestSignatureLeftovers:
    """The signature strategy was removed; specs and manifests that name
    it still load and run the one index, which answered bit-identically."""

    def test_a_signature_spec_warm_loads_the_qgram_snapshot(
        self, example_dir, tmp_path
    ):
        store = IndexStore(tmp_path / "store")
        spec = example_spec(example_dir)
        cold = spec.build_session()
        store.save(spec, cold)
        old = RunSpec(
            **{**spec.to_dict(), "similarity_strategy": "signature"}
        )
        assert old.similarity_strategy == "qgram"
        assert store.key_for(old) == store.key_for(spec)
        warm = store.load(old)
        assert warm is not None
        assert_warm_equals_cold(warm, cold)

    def test_every_other_value_raises_everywhere_it_was_accepted(
        self, example_dir
    ):
        from repro.core import DogmatixConfig
        from repro.core.index import CorpusIndex, IndexPartial
        from repro.framework import TypeMapping
        from repro.strings import make_value_index

        removed = "strategy choice was removed"
        fields = example_spec(example_dir).to_dict()
        with pytest.raises(ValueError, match=removed):
            RunSpec(**{**fields, "similarity_strategy": "bogus"})
        for name in ("bogus", "signature"):
            with pytest.raises(ValueError, match=removed):
                DogmatixConfig(similarity_strategy=name)
            with pytest.raises(ValueError, match=removed):
                CorpusIndex((), TypeMapping(), 0.25, strategy=name)
            with pytest.raises(ValueError, match=removed):
                IndexPartial.from_ods((), TypeMapping(), strategy=name)
            with pytest.raises(ValueError, match=removed):
                make_value_index(name)
        # the one value each name still takes
        assert example_spec(example_dir).similarity_strategy is None
        assert RunSpec(
            **{**fields, "similarity_strategy": "qgram"}
        ).to_config().similarity_strategy == "qgram"
        assert CorpusIndex((), TypeMapping(), 0.25, strategy="qgram").strategy == "qgram"
        assert IndexPartial.from_ods((), TypeMapping(), strategy="qgram").total_objects == 0
        assert make_value_index("qgram", q=3).q == 3

    def test_the_environment_no_longer_picks_a_strategy(self, monkeypatch):
        from repro.core import DogmatixConfig

        for name in ("signature", "bogus"):
            monkeypatch.setenv("REPRO_SIMILARITY_STRATEGY", name)
            assert DogmatixConfig().similarity_strategy == "qgram"


def write_cli_spec(example_dir, **overrides) -> str:
    spec = RunSpec(
        documents=["movies.xml"],
        mapping="mapping.xml",
        real_world_type="MOVIE",
        schemas=["movies.xsd"],
        heuristic="rdistant:2",
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )
    path = example_dir / "run.json"
    path.write_text(
        json.dumps({**spec.to_dict(), **overrides}), encoding="utf-8"
    )
    return str(path)


class TestCLI:
    @pytest.mark.parametrize("signature_in", ["spec", "environment"])
    def test_dedup_under_the_removed_strategy_writes_the_same_bytes(
        self, example_dir, capsys, monkeypatch, signature_in
    ):
        assert cli_main(["dedup", "--spec", write_cli_spec(example_dir)]) == 0
        default = capsys.readouterr().out
        if signature_in == "spec":
            spec_path = write_cli_spec(
                example_dir, similarity_strategy="signature"
            )
        else:
            monkeypatch.setenv("REPRO_SIMILARITY_STRATEGY", "signature")
            spec_path = write_cli_spec(example_dir)
        assert cli_main(["dedup", "--spec", spec_path]) == 0
        assert capsys.readouterr().out == default

    def test_dedup_with_an_unknown_strategy_exits_with_the_error(
        self, example_dir, capsys
    ):
        spec_path = write_cli_spec(example_dir, similarity_strategy="bogus")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["dedup", "--spec", spec_path])
        assert excinfo.value.code == 2
        assert "strategy choice was removed" in capsys.readouterr().err

    def test_index_build_then_cached(self, example_dir, capsys):
        spec_path = write_cli_spec(example_dir)
        store_dir = str(example_dir / "store")
        assert cli_main(["index", "build", "--spec", spec_path,
                         "--store", store_dir]) == 0
        first = capsys.readouterr()
        assert "snapshot saved" in first.err
        digest = first.out.strip()
        assert cli_main(["index", "build", "--spec", spec_path,
                         "--store", store_dir]) == 0
        second = capsys.readouterr()
        assert "already covers" in second.err
        assert second.out.strip() == digest
        assert cli_main(["index", "list", "--store", store_dir]) == 0
        listing = capsys.readouterr()
        assert digest[:12] in listing.out

    def test_dedup_warm_starts_from_store(self, example_dir, capsys):
        spec_path = write_cli_spec(example_dir)
        store_dir = str(example_dir / "store")
        assert cli_main(["dedup", "--spec", spec_path,
                         "--store", store_dir]) == 0
        cold = capsys.readouterr()
        assert "saved index snapshot" in cold.err
        assert cli_main(["dedup", "--spec", spec_path,
                         "--store", store_dir]) == 0
        warm = capsys.readouterr()
        assert "warm start" in warm.err
        assert warm.out == cold.out  # identical dupcluster document

    @pytest.mark.parametrize("command", ["dedup", "match"])
    def test_damaged_snapshot_is_rebuilt_with_a_note(
        self, example_dir, capsys, command
    ):
        spec_path = write_cli_spec(example_dir)
        store_dir = example_dir / "store"
        argv = [command, "--spec", spec_path, "--store", str(store_dir)]
        if command == "match":
            argv += ["--object-id", "0"]
        assert cli_main(argv) == 0
        cold = capsys.readouterr()
        assert "unreadable" not in cold.err
        (snapshot,) = store_dir.glob("*.json.gz")
        snapshot.write_bytes(snapshot.read_bytes()[: snapshot.stat().st_size // 2])
        assert cli_main(argv) == 0
        rebuilt = capsys.readouterr()
        assert f"snapshot {snapshot.name[:12]} unreadable, rebuilding" in rebuilt.err
        assert "warm start" not in rebuilt.err
        assert rebuilt.out == cold.out
        assert cli_main(argv) == 0
        warm = capsys.readouterr()
        assert "warm start" in warm.err and "unreadable" not in warm.err
        assert warm.out == cold.out

    @pytest.mark.parametrize(
        "damage", ["truncated", "another format", "another key", "no manifest"]
    )
    def test_index_build_rebuilds_over_a_snapshot_it_cannot_load(
        self, example_dir, capsys, damage
    ):
        """``index build`` trusted the file's existence: "already covers
        ... use --force" over a snapshot no ``load`` could use."""
        spec_path = write_cli_spec(example_dir)
        store_dir = example_dir / "store"
        argv = ["index", "build", "--spec", spec_path, "--store", str(store_dir)]
        assert cli_main(argv) == 0
        digest = capsys.readouterr().out.strip()
        (snapshot,) = store_dir.glob("*.json.gz")
        (manifest,) = store_dir.glob("*.manifest.json")
        if damage in ("another format", "another key"):
            for path, read, write in (
                (snapshot, gzip.decompress, gzip.compress),
                (manifest, bytes, bytes),
            ):
                record = json.loads(read(path.read_bytes()))
                if damage == "another format":
                    record["format"] = FORMAT_VERSION - 1
                else:
                    record["key"] = "0" * 64
                path.write_bytes(write(json.dumps(record).encode("utf-8")))
        else:
            snapshot.write_bytes(snapshot.read_bytes()[: snapshot.stat().st_size // 2])
            if damage == "no manifest":
                manifest.unlink()
        assert cli_main(argv) == 0
        rebuilt = capsys.readouterr()
        assert f"snapshot {digest[:12]} unreadable, rebuilding" in rebuilt.err
        assert "snapshot saved" in rebuilt.err and "already covers" not in rebuilt.err
        assert rebuilt.out.strip() == digest
        assert cli_main(argv) == 0
        again = capsys.readouterr()
        assert "already covers" in again.err and "unreadable" not in again.err
        assert IndexStore(store_dir).load(RunSpec.load(spec_path)) is not None

    def test_index_build_requires_store(self, example_dir):
        spec_path = write_cli_spec(example_dir)
        with pytest.raises(SystemExit):
            cli_main(["index", "build", "--spec", spec_path])
