"""The detection daemon: routes, parity, locks, LRU, uploads.

The serving contract: every response is derived from a
:class:`~repro.api.DetectionSession` exactly as a direct caller would
see it — ``/match`` is bit-identical to ``session.match()``, ``/detect``
to ``session.detect()`` — with corpora addressed by the
:class:`~repro.ingest.IndexStore` content digest, warm-started from the
store on a resident miss, and guarded by per-session readers-writer
locks (concurrency itself is stressed in
``tests/test_session_concurrency.py``).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from types import SimpleNamespace
from urllib.parse import parse_qs, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.datagen import (
    PAPER_EXAMPLE_XML,
    PAPER_EXAMPLE_XSD,
    paper_example_mapping,
)
from repro.serve import DetectionServer, ServeClient, ServeError
from repro.serve.daemon import MAX_BODY_BYTES
from repro.xmlkit import parse

NEW_MOVIE = (
    "<moviedoc><movie><title>The Matrix</title><year>1999</year>"
    "<actor><name>K. Reeves</name><role>Neo</role></actor>"
    "</movie></moviedoc>"
)


def write_example(directory) -> RunSpec:
    (directory / "movies.xml").write_text(PAPER_EXAMPLE_XML, encoding="utf-8")
    (directory / "movies.xsd").write_text(PAPER_EXAMPLE_XSD, encoding="utf-8")
    (directory / "mapping.xml").write_text(
        paper_example_mapping().to_xml(), encoding="utf-8"
    )
    return example_spec(directory)


def example_spec(directory, **overrides) -> RunSpec:
    fields = dict(
        documents=[str(directory / "movies.xml")],
        mapping=str(directory / "mapping.xml"),
        real_world_type="MOVIE",
        schemas=[str(directory / "movies.xsd")],
        heuristic="rdistant:2",
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def start_server(store_dir, **kwargs) -> tuple[DetectionServer, ServeClient]:
    server = DetectionServer(
        ("127.0.0.1", 0), str(store_dir), quiet=True, **kwargs
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, ServeClient(f"http://127.0.0.1:{server.port}")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One daemon over the paper example for the whole module."""
    tmp = tmp_path_factory.mktemp("serve")
    spec = write_example(tmp)
    server, client = start_server(tmp / "store")
    opened = client.open_corpus(spec)
    yield SimpleNamespace(
        server=server, client=client, spec=spec, digest=opened["digest"],
        tmp=tmp, first_origin=opened["origin"],
    )
    client.close()
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def filtered(tmp_path_factory):
    """A second daemon for the module, never written to: the object
    filter on and a possible band below ``theta_cand``, so every
    threshold check and the C2 band have work."""
    tmp = tmp_path_factory.mktemp("filtered")
    write_example(tmp)
    spec = example_spec(tmp, use_object_filter=True, possible_threshold=0.05)
    server, client = start_server(tmp / "store")
    digest = client.open_corpus(spec)["digest"]
    yield SimpleNamespace(
        client=client, port=server.port, digest=digest,
        session=spec.build_session(),
    )
    client.close()
    server.shutdown()
    server.server_close()


def matches_of(session, *args, **kwargs) -> list:
    """``session.match`` in the daemon's JSON shape."""
    return [
        {"object_id": m.object_id, "similarity": m.similarity, "path": m.path}
        for m in session.match(*args, **kwargs)
    ]


class TestRoutes:
    def test_healthz(self, served):
        health = served.client.healthz()
        assert health["status"] == "ok"
        assert health["sessions"] >= 1

    def test_open_is_idempotent_and_resident(self, served):
        assert served.first_origin == "cold"  # empty store: built, then saved
        opened = served.client.open_corpus(served.spec)
        assert opened["digest"] == served.digest
        assert opened["origin"] == "session"
        assert opened["objects"] == 3

    def test_restarted_daemon_warm_loads_from_store(self, served):
        server, client = start_server(served.tmp / "store")
        try:
            opened = client.open_corpus(served.spec)
            assert opened["digest"] == served.digest
            assert opened["origin"] == "warm"
        finally:
            server.shutdown()
            server.server_close()

    def test_damaged_snapshot_is_rebuilt_not_a_500(self, tmp_path):
        """A snapshot the daemon cannot decode is a store miss: the open
        answers ``cold`` and overwrites it, the next daemon opens warm."""
        spec = write_example(tmp_path)
        origins = []
        for damage in (False, True, False):
            if damage:
                (snapshot,) = (tmp_path / "store").glob("*.json.gz")
                snapshot.write_bytes(
                    snapshot.read_bytes()[: snapshot.stat().st_size // 2]
                )
            server, client = start_server(tmp_path / "store")
            try:
                opened = client.open_corpus(spec)
                origins.append(opened["origin"])
                found = client.match(opened["digest"], object_id=0)["matches"]
                assert [m["object_id"] for m in found] == [1]
            finally:
                server.shutdown()
                server.server_close()
        assert origins == ["cold", "cold", "warm"]

    def test_digest_of_a_compact_session_is_a_4xx_not_a_500(self, tmp_path):
        """A manifest written by a session under the removed compact
        encoding records a spec that no longer builds: serving the
        digest alone is a client error, and re-posting the spec works."""
        from repro.ingest import IndexStore

        spec = write_example(tmp_path)
        store = IndexStore(tmp_path / "store")
        digest = store.save(spec, spec.build_session())
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["index_encoding"] = "compact"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        server, client = start_server(tmp_path / "store")
        try:
            with pytest.raises(ServeError) as excinfo:
                client.match(digest, object_id=0)
            assert 400 <= excinfo.value.status < 500
            assert digest in {s["digest"] for s in client.catalog()["snapshots"]}
            assert client.open_corpus(spec)["origin"] == "warm"
            found = client.match(digest, object_id=0)["matches"]
            assert [m["object_id"] for m in found] == [1]
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_digest_of_a_signature_session_is_served(self, tmp_path):
        """A manifest written by a session under the removed signature
        strategy still builds: it runs the one index, which answered
        bit-identically, so a restarted daemon serves the digest alone
        instead of answering 404."""
        from repro.ingest import IndexStore

        spec = write_example(tmp_path)
        store = IndexStore(tmp_path / "store")
        reference = spec.build_session()
        digest = store.save(spec, reference)
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["similarity_strategy"] = "signature"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        server, client = start_server(tmp_path / "store")
        try:
            for od in reference.ods:
                assert client.match(digest, object_id=od.object_id)[
                    "matches"
                ] == [
                    {"object_id": m.object_id, "similarity": m.similarity,
                     "path": m.path}
                    for m in reference.match(od.object_id)
                ]
            assert client.detect(digest)["xml"] == reference.detect().to_xml()
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_digest_of_a_shard_session_is_served(self, tmp_path):
        """A manifest written by a session under the removed shard
        backend — ``backend: "shard"``, ``shard_by``,
        ``filter_in_workers`` — still builds, as the process backend,
        which answered bit-identically: a restarted daemon serves the
        digest alone, equal to a serial session."""
        from repro.ingest import IndexStore

        write_example(tmp_path)
        spec = example_spec(tmp_path, use_object_filter=True)
        store = IndexStore(tmp_path / "store")
        reference = spec.build_session()
        digest = store.save(spec, reference)
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"].update(
            workers=2, backend="shard", shard_by="object",
            filter_in_workers=True,
        )
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        server, client = start_server(tmp_path / "store")
        try:
            for od in reference.ods:
                assert client.match(digest, object_id=od.object_id)[
                    "matches"
                ] == [
                    {"object_id": m.object_id, "similarity": m.similarity,
                     "path": m.path}
                    for m in reference.match(od.object_id)
                ]
            assert client.detect(digest)["xml"] == reference.detect().to_xml()
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_digest_of_a_parent_session_with_batch_settings_is_served(
        self, tmp_path
    ):
        """A manifest written while ``batch_size`` and ``ingest_workers``
        were spec fields still builds, without them: a restarted daemon
        serves the digest alone, equal to a session built today."""
        from repro.ingest import IndexStore

        write_example(tmp_path)
        spec = example_spec(tmp_path, use_object_filter=True)
        store = IndexStore(tmp_path / "store")
        reference = spec.build_session()
        digest = store.save(spec, reference)
        manifest_path = store._manifest_path(digest)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"].update(batch_size=512, ingest_workers=2)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        server, client = start_server(tmp_path / "store")
        try:
            for od in reference.ods:
                assert client.match(digest, object_id=od.object_id)[
                    "matches"
                ] == matches_of(reference, od.object_id)
            assert client.open_corpus(
                {**spec.to_dict(), "batch_size": 512, "ingest_workers": 2}
            ) == {
                "digest": digest, "origin": "session",
                "real_world_type": "MOVIE", "objects": len(reference.ods),
            }
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "fields",
        [
            {"batch_size": 0},
            {"batch_size": -3},
            {"backend": "serial", "workers": 2},
        ],
        ids=["batch_size-0", "batch_size-negative", "serial-two-workers"],
    )
    def test_bad_execution_field_400(self, served, fields):
        """Checked when the spec loads, so the open is a client error
        naming the spec, not a 500 from building the session."""
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus({**served.spec.to_dict(), **fields})
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("bad RunSpec: ")

    @pytest.mark.parametrize(
        "fields",
        [
            {"theta_cand": 2},
            {"theta_tuple": -1},
            {"possible_threshold": 0.9},
        ],
        ids=["cand-2", "tuple-negative", "possible-above-cand"],
    )
    def test_bad_threshold_400(self, served, fields):
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus({**served.spec.to_dict(), **fields})
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("bad RunSpec: ")

    def test_catalog_lists_snapshot_and_resident(self, served):
        catalog = served.client.catalog()
        digests = {snap["digest"] for snap in catalog["snapshots"]}
        assert served.digest in digests
        assert served.digest in catalog["loaded"]

    def test_unknown_route_404(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_spec_400(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus({"documents": ["x.xml"]})
        assert excinfo.value.status == 400


class TestMatch:
    def test_match_bit_identical_to_session(self, served):
        session = served.spec.build_session()
        for od in session.ods:
            expected = [
                {"object_id": m.object_id, "similarity": m.similarity,
                 "path": m.path}
                for m in session.match(od.object_id)
            ]
            response = served.client.match(
                served.digest, object_id=od.object_id
            )
            assert response["matches"] == expected

    def test_match_theta_and_top_params(self, served):
        session = served.spec.build_session()
        all_partners = served.client.match(
            served.digest, object_id=0, theta_cand=0.1
        )["matches"]
        expected = session.match(0, theta_cand=0.1)
        assert [m["object_id"] for m in all_partners] == [
            m.object_id for m in expected
        ]
        top = served.client.match(
            served.digest, object_id=0, theta_cand=0.1, top=1
        )["matches"]
        assert top == all_partners[:1]

    def test_match_by_digest_prefix(self, served):
        response = served.client.match(served.digest[:10], object_id=0)
        assert response["digest"] == served.digest

    def test_match_foreign_element(self, served):
        matrix = (
            "<moviedoc><movie><title>The Matrix</title>"
            "<year>1999</year></movie></moviedoc>"
        )
        response = served.client.match(served.digest, element=matrix)
        assert {m["object_id"] for m in response["matches"]} == {0, 1}

    def test_match_ambiguous_document_400(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.match(served.digest, element=PAPER_EXAMPLE_XML)
        assert excinfo.value.status == 400
        assert "candidate elements" in excinfo.value.message

    def test_match_no_candidate_400(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.match(
                served.digest, element="<other><thing/></other>"
            )
        assert excinfo.value.status == 400

    def test_match_unparsable_element_400(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.match(
                served.digest, element="<movie t='&#99999999999999999999;'/>"
            )
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("unparsable XML: ")
        assert " at line 1, column " in excinfo.value.message

    def test_match_unknown_object_404(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.match(served.digest, object_id=99)
        assert excinfo.value.status == 404

    def test_match_unknown_digest_404(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.match("f" * 64, object_id=0)
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("prefix", ["*", "[0-9a-f]"])
    def test_match_by_a_pattern_prefix_404(self, served, prefix):
        """A digest prefix is text: a glob pattern matches no corpus
        (``*`` was a 500, ``[0-9a-f]`` answered for the stored one)."""
        with pytest.raises(ServeError) as excinfo:
            served.client._request(
                "GET", f"/corpora/{prefix}/match?object_id=0"
            )
        assert excinfo.value.status == 404

    def test_match_needs_a_target(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client._request(
                "GET", f"/corpora/{served.digest}/match"
            )
        assert excinfo.value.status == 400


class TestThresholdAndTopParameters:
    """A query value no run could use is a 400 naming it, never a 500
    and never a silently different answer."""

    @pytest.mark.parametrize("theta", ["2", "-1", "nan", "inf", "1e400"])
    @pytest.mark.parametrize("daemon", ["served", "filtered"])
    def test_out_of_range_theta_cand_400(self, request, daemon, theta):
        corpus = request.getfixturevalue(daemon)
        for method, route in (("GET", "match?object_id=0&"), ("POST", "detect?")):
            with pytest.raises(ServeError) as excinfo:
                corpus.client._request(
                    method, f"/corpora/{corpus.digest}/{route}theta_cand={theta}"
                )
            assert excinfo.value.status == 400
            assert "theta_cand must be a number in [0, 1]" in (
                excinfo.value.message
            )

    @pytest.mark.parametrize("theta", ["0.05", "0.01"])
    def test_theta_cand_inside_the_possible_band_400(self, filtered, theta):
        for method, route in (("GET", "match?object_id=0&"), ("POST", "detect?")):
            with pytest.raises(ServeError) as excinfo:
                filtered.client._request(
                    method, f"/corpora/{filtered.digest}/{route}theta_cand={theta}"
                )
            assert excinfo.value.status == 400
            assert "possible_threshold" in excinfo.value.message

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_400(self, filtered, top):
        """``top=-1`` answered ``[]`` where ``top`` unset answered
        ``[1]``; the CLI's ``--top`` has always required >= 1."""
        assert [
            m["object_id"]
            for m in filtered.client.match(
                filtered.digest, object_id=0, theta_cand=0.1
            )["matches"]
        ] == [1]
        with pytest.raises(ServeError) as excinfo:
            filtered.client.match(
                filtered.digest, object_id=0, theta_cand=0.1, top=top
            )
        assert excinfo.value.status == 400
        assert excinfo.value.message == f"top must be an integer >= 1, got {top}"


#: Query values as a client may send them: absent, numbers of any kind,
#: the special floats, or arbitrary text.
_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def _query_value(numbers):
    return st.one_of(
        st.none(),
        numbers.map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(str),
        st.sampled_from(["nan", "inf", "-inf", "2", "1e400", "", "0.05"]),
        _ANY_TEXT,
    )


class TestRouteFuzz:
    """Whatever a client puts in the query of ``match`` / ``detect``,
    the daemon answers 200 or a 4xx with a JSON error — never a 5xx —
    and a 200 from ``match`` is the in-process ``session.match``."""

    @settings(max_examples=150, deadline=None)
    @given(
        action=st.sampled_from(["match", "detect"]),
        object_id=_query_value(st.integers(-2, 4)),
        theta_cand=_query_value(st.floats(-0.5, 1.5)),
        top=_query_value(st.integers(-2, 4)),
        include_possible=st.one_of(
            st.none(), st.sampled_from(["true", "1", "on", "no"]), _ANY_TEXT
        ),
    )
    def test_no_query_answers_5xx(
        self, filtered, action, object_id, theta_cand, top, include_possible
    ):
        drawn = {
            "object_id": object_id, "theta_cand": theta_cand, "top": top,
            "include_possible": include_possible,
        }
        query = urlencode({k: v for k, v in drawn.items() if v is not None})
        connection = http.client.HTTPConnection(
            "127.0.0.1", filtered.port, timeout=30
        )
        try:
            status, body = exchange(
                connection,
                "GET" if action == "match" else "POST",
                f"/corpora/{filtered.digest}/{action}?{query}",
            )
        finally:
            connection.close()
        if status != 200:
            assert 400 <= status < 500, body
            assert isinstance(body["error"], str) and body["error"]
            return
        if action == "detect":
            return
        seen = {k: v[-1] for k, v in parse_qs(query).items()}
        theta = seen.get("theta_cand")
        expected = matches_of(
            filtered.session,
            int(seen["object_id"]),
            theta_cand=None if theta is None else float(theta),
            include_possible=seen.get("include_possible", "").lower()
            in ("1", "true", "yes", "on"),
        )
        if "top" in seen:
            expected = expected[: int(seen["top"])]
        assert body["matches"] == expected


class TestDetect:
    def test_detect_bit_identical_to_session(self, served):
        session = served.spec.build_session()
        expected = session.detect()
        response = served.client.detect(served.digest)
        assert response["xml"] == expected.to_xml()
        assert response["summary"] == expected.summary()
        assert {
            (left, right) for left, right, _ in response["duplicates"]
        } == expected.duplicate_id_pairs()

    def test_detect_theta_override(self, served):
        session = served.spec.build_session()
        response = served.client.detect(served.digest, theta_cand=0.99)
        assert response["xml"] == session.detect(theta_cand=0.99).to_xml()


class TestExtendAndUploads:
    def test_extend_grows_the_session(self, served):
        # A separate digest so the shared-session parity tests above
        # never observe the in-memory extension (theta_cand is a
        # run-time knob outside the content key; theta_tuple is not).
        spec = example_spec(served.tmp, theta_tuple=0.56)
        digest = served.client.open_corpus(spec)["digest"]
        assert digest != served.digest
        update = served.client.extend(digest, NEW_MOVIE)
        assert update["added"] == [3]
        assert update["objects"] == 4
        found = served.client.match(digest, object_id=3)["matches"]
        assert {m["object_id"] for m in found} == {0, 1}
        # The extension is in-memory only: the reference twin must be
        # extended the same way to agree.
        twin = spec.build_session()
        twin.extend(parse(NEW_MOVIE))
        expected = [
            {"object_id": m.object_id, "similarity": m.similarity,
             "path": m.path}
            for m in twin.match(3)
        ]
        assert served.client.match(digest, object_id=3)["matches"] == expected

    @pytest.mark.parametrize(
        "body", ["<not-xml", "<moviedoc>&#99999999999999999999;</moviedoc>"]
    )
    def test_extend_rejects_garbage(self, served, body):
        with pytest.raises(ServeError) as excinfo:
            served.client.extend(served.digest, body)
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("unparsable XML: ")

    def test_inline_uploads(self, served):
        spec = dict(
            documents=["up-movies.xml"],
            mapping="up-mapping.xml",
            real_world_type="MOVIE",
            schemas=["up-movies.xsd"],
            heuristic="rdistant:2",
            theta_tuple=0.55,
            theta_cand=0.55,
            use_object_filter=False,
        )
        files = {
            "up-movies.xml": PAPER_EXAMPLE_XML,
            "up-movies.xsd": PAPER_EXAMPLE_XSD,
            "up-mapping.xml": paper_example_mapping().to_xml(),
        }
        opened = served.client.open_corpus(spec, files=files)
        assert opened["objects"] == 3
        found = served.client.match(opened["digest"], object_id=0)["matches"]
        assert [m["object_id"] for m in found] == [1]

    def test_upload_names_are_sanitized(self, served):
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus(
                {"documents": ["x"], "mapping": "m",
                 "real_world_type": "MOVIE"},
                files={"../evil.xml": "<x/>"},
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("name", [".", "..", "..."])
    def test_upload_names_made_of_dots_400(self, served, name):
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus(
                {"documents": [name], "mapping": "m",
                 "real_world_type": "MOVIE"},
                files={name: "<a/>"},
            )
        assert excinfo.value.status == 400
        assert "upload name" in str(excinfo.value)

    def test_upload_names_with_dots_and_letters_open(self, served):
        spec = dict(served.spec.to_dict(), documents=[".movies..xml"])
        opened = served.client.open_corpus(
            spec, files={".movies..xml": PAPER_EXAMPLE_XML}
        )
        assert opened["objects"] == 3


def hostile_documents(tmp_path) -> dict:
    """A document that names a local file as an external entity, and a
    billion-laughs document, both shaped like a corpus record."""
    secret = tmp_path / "secret.txt"
    secret.write_text("SENTINEL-4f1c", encoding="utf-8")
    laughs = ['<!ENTITY lol0 "lol">'] + [
        f'<!ENTITY lol{level} "{f"&lol{level - 1};" * 10}">'
        for level in range(1, 9)
    ]
    return {
        "external-entity": (
            f'<!DOCTYPE moviedoc [<!ENTITY e SYSTEM "{secret.as_uri()}">]>'
            "<moviedoc><movie><title>&e;</title></movie></moviedoc>"
        ),
        "billion-laughs": (
            f'<!DOCTYPE moviedoc [{"".join(laughs)}]>'
            "<moviedoc><movie><title>&lol8;</title></movie></moviedoc>"
        ),
    }


class TestUnparsableAndHostileXml:
    """Every route that takes XML answers 400 for XML that does not
    parse, an external entity included (never read) and a billion-laughs
    expansion included (never finished)."""

    @pytest.fixture(scope="class")
    def hostile(self, tmp_path_factory):
        return hostile_documents(tmp_path_factory.mktemp("hostile"))

    def upload(self, served, document):
        spec = example_spec(served.tmp).to_dict()
        spec.update(documents=["bad-movies.xml"], schemas=[])
        return served.client.open_corpus(spec, files={"bad-movies.xml": document})

    def test_malformed_corpus_upload_400(self, served):
        with pytest.raises(ServeError) as excinfo:
            self.upload(served, "<moviedoc><movie></moviedoc>")
        assert excinfo.value.status == 400
        message = excinfo.value.message
        assert message.startswith("unparsable XML in corpus inputs: ")
        assert message.endswith(
            "bad-movies.xml: mismatched tag at line 1, column 19"
        )

    @pytest.mark.parametrize("kind", ["external-entity", "billion-laughs"])
    def test_hostile_corpus_upload_400(self, served, hostile, kind):
        with pytest.raises(ServeError) as excinfo:
            self.upload(served, hostile[kind])
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("unparsable XML in corpus inputs: ")
        assert "SENTINEL" not in excinfo.value.message

    @pytest.mark.parametrize("kind", ["external-entity", "billion-laughs"])
    def test_hostile_posted_element_400(self, served, hostile, kind):
        with pytest.raises(ServeError) as excinfo:
            served.client.match(served.digest, element=hostile[kind])
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("unparsable XML: ")
        assert "SENTINEL" not in excinfo.value.message

    @pytest.mark.parametrize("kind", ["external-entity", "billion-laughs"])
    def test_hostile_extend_400(self, served, hostile, kind):
        objects = served.client.open_corpus(served.spec)["objects"]
        with pytest.raises(ServeError) as excinfo:
            served.client.extend(served.digest, hostile[kind])
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("unparsable XML: ")
        assert "SENTINEL" not in excinfo.value.message
        assert served.client.open_corpus(served.spec)["objects"] == objects


class TestRegistry:
    def test_lru_eviction_and_warm_reload(self, served):
        server, client = start_server(served.tmp / "store", max_sessions=1)
        try:
            first = client.open_corpus(served.spec)
            assert first["origin"] == "warm"
            # A different OD-shaping config is a different content key.
            other = example_spec(served.tmp, theta_tuple=0.60)
            second = client.open_corpus(other)
            assert second["digest"] != first["digest"]
            assert client.catalog()["loaded"] == [second["digest"]]
            # The evicted corpus still answers: warm reload by digest.
            found = client.match(first["digest"], object_id=0)["matches"]
            assert [m["object_id"] for m in found] == [1]
            assert client.catalog()["loaded"] == [first["digest"]]
        finally:
            server.shutdown()
            server.server_close()


class _RecordingSocket(socket.socket):
    """An accepted connection that logs the size of every send."""

    def send(self, data, *args):
        self.sends.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends.append(len(data))
        return super().sendall(data, *args)


class _WireServer(DetectionServer):
    """The daemon, with its accepted sockets and their sends on record."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted: list[_RecordingSocket] = []
        self.sends: list[int] = []

    def get_request(self):
        plain, address = super().get_request()
        recording = _RecordingSocket(
            plain.family, plain.type, plain.proto, fileno=plain.detach()
        )
        recording.sends = self.sends
        self.accepted.append(recording)
        return recording, address


@pytest.fixture(scope="class")
def wire(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wire")
    spec = write_example(tmp)
    server = _WireServer(("127.0.0.1", 0), str(tmp / "store"), quiet=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    digest = client.open_corpus(spec)["digest"]
    client.close()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    yield SimpleNamespace(
        server=server, spec=spec, digest=digest, connection=connection
    )
    connection.close()
    server.shutdown()
    server.server_close()


def exchange(connection, method, path, body=None, headers=None):
    """One request on a raw ``http.client`` connection: status, headers
    and the decoded JSON body (every daemon response must have one)."""
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    assert response.getheader("Content-Type") == "application/json", raw
    return response.status, json.loads(raw)


class TestWire:
    """What the daemon puts on the socket, not only what it answers."""

    def test_every_route_answers_in_one_send(self, wire):
        corpus = f"/corpora/{wire.digest}"
        spec = json.dumps(wire.spec.to_dict()).encode("utf-8")
        requests = [
            ("GET", "/healthz", None, 200),
            ("GET", "/corpora", None, 200),
            ("POST", "/corpora", spec, 200),
            ("GET", f"{corpus}/match?object_id=0", None, 200),
            ("POST", f"{corpus}/match", NEW_MOVIE.encode("utf-8"), 200),
            ("POST", f"{corpus}/detect", None, 200),
            ("POST", f"{corpus}/extend", NEW_MOVIE.encode("utf-8"), 200),
            ("GET", f"{corpus}/match?object_id=99", None, 404),
            ("GET", f"{corpus}/match", None, 400),
            ("POST", f"{corpus}/extend", b"<not-xml", 400),
            ("GET", "/nope", None, 404),
            ("DELETE", "/healthz", None, 501),
        ]
        for method, path, body, expected in requests:
            del wire.server.sends[:]
            status, _ = exchange(wire.connection, method, path, body)
            assert status == expected, (method, path)
            assert len(wire.server.sends) == 1, (method, path, wire.server.sends)

    def test_accepted_connections_disable_nagle(self, wire):
        exchange(wire.connection, "GET", "/healthz")  # connection is open
        accepted = wire.server.accepted[-1]
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_unread_body_does_not_desync_the_connection(self, wire):
        # The 404 is decided without looking at the body; the body must
        # not be parsed as the next request on the kept-alive connection.
        accepted = len(wire.server.accepted)
        for method, path, expected in [
            ("POST", "/nope", 404),
            ("GET", f"/corpora/{wire.digest}/match?object_id=0", 200),
            ("POST", f"/corpora/{wire.digest}/match?top=x", 400),
        ]:
            status, _ = exchange(
                wire.connection, method, path, NEW_MOVIE.encode("utf-8")
            )
            assert status == expected
            status, health = exchange(wire.connection, "GET", "/healthz")
            assert (status, health["status"]) == (200, "ok")
        assert len(wire.server.accepted) == accepted  # never reconnected

    @pytest.mark.parametrize("declared", ["abc", "-5", "1.5", "0x10", ""])
    def test_bad_content_length_is_a_json_400(self, wire, declared):
        status, payload = exchange(
            wire.connection, "POST", f"/corpora/{wire.digest}/extend",
            headers={"Content-Length": declared},
        )
        assert status == 400
        assert "ValueError" not in payload["error"]
        # The connection closed where the body length was unknowable
        # (http.client reopens); either way the next request is answered.
        assert exchange(wire.connection, "GET", "/healthz")[0] == 200

    def test_missing_content_length_is_an_empty_body(self, wire):
        connection = wire.connection
        connection.putrequest("POST", f"/corpora/{wire.digest}/extend")
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "body" in payload["error"]

    def test_chunked_body_is_refused_and_the_connection_closed(self, wire):
        status, payload = exchange(
            wire.connection, "POST", f"/corpora/{wire.digest}/extend",
            body=iter([NEW_MOVIE.encode("utf-8")]),
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert "Content-Length" in payload["error"]
        assert exchange(wire.connection, "GET", "/healthz")[0] == 200

    def test_oversized_body_is_a_413_and_the_connection_closed(self, wire):
        # Only the head is sent: the daemon must answer from the declared
        # length alone, without waiting for a body that never comes.
        head = (
            f"POST /corpora/{wire.digest}/extend HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", wire.server.port), timeout=30
        ) as raw:
            raw.sendall(head.encode("ascii"))
            answer = b""
            while chunk := raw.recv(4096):  # ends when the daemon closes
                answer += chunk
        status_line, _, rest = answer.partition(b"\r\n")
        headers, _, body = rest.partition(b"\r\n\r\n")
        assert status_line.split()[1] == b"413"
        assert b"connection: close" in headers.lower()
        assert "limit" in json.loads(body)["error"]
        fresh = http.client.HTTPConnection(
            "127.0.0.1", wire.server.port, timeout=30
        )
        try:
            assert exchange(fresh, "GET", "/healthz")[0] == 200
        finally:
            fresh.close()

    @pytest.mark.parametrize("method", ["DELETE", "PUT", "HEAD", "BREW"])
    def test_unsupported_method_is_json_not_html(self, wire, method):
        wire.connection.request(method, "/healthz")
        response = wire.connection.getresponse()
        raw = response.read()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        if method != "HEAD":
            assert "error" in json.loads(raw)

    def test_bad_request_line_is_json_not_html(self, wire):
        with socket.create_connection(
            ("127.0.0.1", wire.server.port), timeout=30
        ) as raw:
            raw.sendall(b"NONSENSE\r\n\r\n")
            answer = b""
            while chunk := raw.recv(4096):
                answer += chunk
        assert b"<html" not in answer.lower()
        assert "error" in json.loads(answer.rpartition(b"\r\n")[2])

    def test_unhandled_error_names_no_python_exception(
        self, wire, monkeypatch, capsys
    ):
        def broken():
            raise RuntimeError("secret detail")

        monkeypatch.setattr(wire.server.registry, "digests", broken)
        status, payload = exchange(wire.connection, "GET", "/corpora")
        assert status == 500
        assert payload == {"error": "internal server error"}
        assert "secret detail" in capsys.readouterr().err  # logged instead


class TestClientConnection:
    def test_one_connection_per_thread_reopened_once_when_dropped(self, wire):
        client = ServeClient(f"http://127.0.0.1:{wire.server.port}")
        before = len(wire.server.accepted)
        try:
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
            assert len(wire.server.accepted) == before + 1
            other: list[dict] = []
            thread = threading.Thread(
                target=lambda: other.append(client.healthz())
            )
            thread.start()
            thread.join(timeout=30)
            assert other and other[0]["status"] == "ok"
            assert len(wire.server.accepted) == before + 2
            # The daemon hangs up on the kept-alive connection: its
            # handler reads end-of-stream and closes the socket.
            dropped = wire.server.accepted[before]
            dropped.shutdown(socket.SHUT_RD)
            deadline = time.monotonic() + 30
            while dropped.fileno() != -1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert dropped.fileno() == -1
            assert client.healthz()["status"] == "ok"
            assert len(wire.server.accepted) == before + 3
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            assert len(wire.server.accepted) == before + 3
        finally:
            client.close()

    def test_refused_connection_is_not_retried_into_a_hang(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        with pytest.raises(OSError):
            ServeClient(f"http://127.0.0.1:{port}", timeout=5).healthz()


class TestServeCLI:
    def test_serve_requires_store(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.max_sessions == 4
        assert not args.quiet
