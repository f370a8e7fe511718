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
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace
from typing import Optional
from urllib.parse import parse_qs, unquote, urlencode

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
from repro.serve import daemon
from repro.serve.daemon import MAX_BODY_BYTES, _Handler
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
        before = served.client.match(served.digest, object_id=0)
        opened = served.client.open_corpus(served.spec)
        assert opened["digest"] == served.digest
        assert opened["origin"] == "session"
        assert opened["objects"] == 3
        assert served.client.match(served.digest, object_id=0) == before

    @pytest.mark.parametrize(
        "name, value",
        [
            ("use_object_filter", True),
            ("theta_cand", 0.6),
            ("possible_threshold", 0.3),
            ("similar_semantics", "all-pairs"),
        ],
    )
    def test_other_answer_settings_conflict_409(self, served, name, value):
        """The store digest leaves out the run-time settings: a spec
        that differs from the resident one in a setting that changes an
        answer is refused, never served the resident session's answers."""
        before = served.client.match(served.digest, object_id=0)
        spec = {**served.spec.to_dict(), name: value}
        resident = getattr(served.spec.to_config(), name)
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.server.port, timeout=30
        )
        try:
            status, body = exchange(
                connection, "POST", "/corpora", json.dumps(spec).encode("utf-8")
            )
        finally:
            connection.close()
        assert status == 409, body
        assert body["conflicts"] == {
            name: {"resident": resident, "requested": value}
        }
        assert f"{name}={resident!r} resident" in body["error"]
        assert f"{value!r} requested" in body["error"]
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus(spec)
        assert excinfo.value.status == 409
        assert name in excinfo.value.message
        # the resident session is untouched and still opens as itself
        assert served.client.open_corpus(served.spec)["origin"] == "session"
        assert served.client.match(served.digest, object_id=0) == before

    def test_every_conflicting_setting_is_named(self, served):
        spec = {
            **served.spec.to_dict(),
            "use_object_filter": True,
            "theta_cand": 0.6,
        }
        with pytest.raises(ServeError) as excinfo:
            served.client.open_corpus(spec)
        assert excinfo.value.status == 409
        assert "use_object_filter=False resident" in excinfo.value.message
        assert "theta_cand=0.55 resident" in excinfo.value.message

    @pytest.mark.parametrize(
        "fields",
        [{"workers": 2}, {"use_blocking": False}, {"similar_semantics": "matching"}],
        ids=["workers", "blocking", "same-semantics"],
    )
    def test_settings_that_change_no_answer_share_the_session(
        self, served, fields
    ):
        """Backends are bit-identical and blocking is lossless: a spec
        that differs only there is served by the resident session."""
        before = served.client.match(served.digest, object_id=0)
        opened = served.client.open_corpus({**served.spec.to_dict(), **fields})
        assert (opened["digest"], opened["origin"]) == (served.digest, "session")
        assert served.client.match(served.digest, object_id=0) == before

    def test_same_bytes_under_other_paths_share_the_session(self, served):
        copies = served.tmp / "copies"
        copies.mkdir(exist_ok=True)
        for name in ("movies.xml", "movies.xsd", "mapping.xml"):
            (copies / name).write_bytes((served.tmp / name).read_bytes())
        opened = served.client.open_corpus(example_spec(copies))
        assert (opened["digest"], opened["origin"]) == (served.digest, "session")

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

    def test_top_does_not_truncate_a_later_answer(self, tmp_path):
        """A lookup's answer is stored once per corpus state; ``top``
        cuts the response, not what the next lookup reads."""
        spec = write_example(tmp_path)
        server, client = start_server(tmp_path / "store")
        try:
            digest = client.open_corpus(spec)["digest"]
            client.extend(digest, NEW_MOVIE)
            session = spec.build_session()
            session.extend(parse(NEW_MOVIE))
            full = matches_of(session, 0)
            assert len(full) == 2
            assert client.match(digest, object_id=0, top=1)["matches"] == full[:1]
            assert client.match(digest, object_id=0)["matches"] == full
            assert client.match(digest, object_id=0, top=1)["matches"] == full[:1]
        finally:
            client.close()
            server.shutdown()
            server.server_close()

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

    @pytest.mark.parametrize("digest", ["?", "?object_id=0", "/", "..", "%61"])
    def test_a_digest_argument_is_one_path_segment(self, served, digest):
        """``ServeClient`` quotes the digest and the daemon decodes each
        segment, so no character of it names another route: a raw ``?``
        ended the path and ``match("?")`` got the ``GET /corpora``
        catalog."""
        with pytest.raises(ServeError) as excinfo:
            served.client.match(digest, object_id=0)
        assert excinfo.value.status == 404
        assert excinfo.value.message == f"unknown corpus digest {digest!r}"

    def test_a_percent_encoded_prefix_is_that_prefix(self, served):
        encoded = "".join(f"%{ord(c):02X}" for c in served.digest[:12])
        assert served.client._request(
            "GET", f"/corpora/{encoded}/match?object_id=0"
        ) == served.client.match(served.digest, object_id=0)

    def test_a_decoded_segment_never_names_a_store_file(
        self, served, monkeypatch
    ):
        """Only 64 hex digits go to the store as a whole digest; a
        64-character segment that decodes to a path is a prefix that
        matches nothing."""
        asked = []
        store = served.server.store
        monkeypatch.setattr(
            store, "spec_for", lambda digest: asked.append(digest)
        )
        climb = "..%2F" * 20 + "0000"
        with pytest.raises(ServeError) as excinfo:
            served.client._request("GET", f"/corpora/{climb}/match?object_id=0")
        assert excinfo.value.status == 404
        assert asked == []

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

    #: What a client may put where a digest goes: hex of both cases,
    #: glob characters (a prefix once served as a glob pattern, so the
    #: whole patterns that match hex are drawn too), ``%``-escapes of hex
    #: digits (``%61`` is ``a``: an escaped resident prefix is still that
    #: prefix) and of other characters, stray ``%``, dots and backslashes.
    _DIGEST_CHARACTERS = st.one_of(
        st.sampled_from("0123456789abcdef"),
        st.sampled_from("ABCDEF"),
        st.sampled_from("*?[]"),
        st.sampled_from(["%2e", "%2F", "%41", "%61", "%30", "%", "%%"]),
        st.sampled_from(". .. \\ \\.".split()),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        cut=st.integers(0, 64),
        upper=st.booleans(),
        tail=st.one_of(
            st.sampled_from(["", "*", "[0-9a-f]", "[!z]", "*[a-f]*"]),
            st.lists(_DIGEST_CHARACTERS, max_size=12).map("".join),
        ),
    )
    def test_no_digest_answers_5xx(self, filtered, cut, upper, tail):
        """Every route under ``/corpora/<digest>/`` answers a drawn
        segment of 0–70 characters (a slice of the resident digest,
        perhaps upper-cased, and a tail) with a 4xx, or — where the
        segment, percent-decoded as the daemon decodes it, is a prefix
        of the resident digest — exactly what the full digest gets.
        Sent raw, a ``?`` would end the path and name another route, so
        the raw request carries it as ``%3F``; ``ServeClient`` is handed
        the decoded segment as it is, quotes it itself, and must get the
        same answers.  ``extend`` carries no body, so no draw writes."""
        prefix = filtered.digest[:cut]
        raw = ((prefix.upper() if upper else prefix) + tail)[:70]
        raw = raw.replace("?", "%3F")
        segment = unquote(raw)
        resident = bool(segment) and filtered.digest.startswith(segment)
        client = filtered.client
        connection = http.client.HTTPConnection(
            "127.0.0.1", filtered.port, timeout=30
        )
        try:
            for method, action, call in (
                ("GET", "match?object_id=0",
                 lambda digest: client.match(digest, object_id=0)),
                ("POST", "detect", client.detect),
                ("POST", "extend", lambda digest: client.extend(digest, "")),
            ):
                status, body = exchange(
                    connection, method, f"/corpora/{raw}/{action}"
                )
                assert status < 500, (raw, action, body)
                if resident:
                    assert (status, body) == exchange(
                        connection, method, f"/corpora/{filtered.digest}/{action}"
                    ), (raw, action)
                else:
                    assert 400 <= status < 500, (raw, action, body)
                    assert isinstance(body["error"], str) and body["error"]
                try:
                    through_client = 200, call(segment)
                except ServeError as exc:
                    through_client = exc.status, exc.message
                assert through_client == (
                    (status, body) if status == 200 else (status, body["error"])
                ), (raw, action)
        finally:
            connection.close()


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


    def test_a_lookup_answers_while_a_detect_runs(self, filtered, monkeypatch):
        """``detect`` reads under the session's read lock, as ``match``
        does: held mid-run by a spy, it lets a lookup through, and the
        lookup answers what it answers alone."""
        from repro.api.session import DetectionSession

        in_detect = threading.local()
        entered, release = threading.Event(), threading.Event()
        real_detect = DetectionSession.detect
        real_theta = DetectionSession._theta

        def detect(self, *args, **kwargs):
            in_detect.active = True
            try:
                return real_detect(self, *args, **kwargs)
            finally:
                in_detect.active = False

        def theta(self, theta_cand):
            if getattr(in_detect, "active", False):
                entered.set()
                assert release.wait(30)
            return real_theta(self, theta_cand)

        monkeypatch.setattr(DetectionSession, "detect", detect)
        monkeypatch.setattr(DetectionSession, "_theta", theta)
        expected = matches_of(filtered.session, 0, include_possible=True)
        answers: dict = {}

        def call(name, *args, **kwargs):
            answers[name] = getattr(filtered.client, name)(*args, **kwargs)

        detecting = threading.Thread(
            target=call, args=("detect", filtered.digest), daemon=True
        )
        detecting.start()
        try:
            assert entered.wait(30)
            looking = threading.Thread(
                target=call,
                args=("match", filtered.digest),
                kwargs={"object_id": 0, "include_possible": True},
                daemon=True,
            )
            looking.start()
            looking.join(30)
            assert not looking.is_alive(), "match waited for detect"
            assert "detect" not in answers  # still held by the spy
        finally:
            release.set()
            detecting.join(30)
        assert answers["match"]["matches"] == expected
        assert answers["detect"]["xml"] == filtered.session.detect().to_xml()


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


def wait_until(condition, seconds: float = 30) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestIdleTimeout:
    """``_Handler.timeout`` hangs up on a peer that stops sending, so a
    stalled connection holds its thread that long, not for ever."""

    @pytest.fixture()
    def handlers(self, monkeypatch) -> list:
        """The timeout patched small; each connection's handler thread
        recorded as it starts."""
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        started = []
        setup = _Handler.setup

        def recording_setup(handler):
            started.append(threading.current_thread())
            setup(handler)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        return started

    def test_accepted_sockets_carry_the_timeout_and_outlast_a_pause(
        self, tmp_path
    ):
        """Unpatched: an accepted socket times out, and a peer pausing
        inside a head for longer than a served workload's gaps (0.4 s)
        is still answered."""
        server = _WireServer(("127.0.0.1", 0), str(tmp_path / "store"), quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with RawPeer(server.port) as peer:
                peer.send(b"GET /healthz HTTP/1.1\r\n")
                time.sleep(0.5)
                peer.send(b"Host: x\r\n\r\n")
                assert peer.response().status == 200
                assert _Handler.timeout is not None
                assert server.accepted[0].gettimeout() == _Handler.timeout
        finally:
            server.shutdown()
            server.server_close()

    def test_peers_stalled_inside_a_head_free_their_threads(
        self, tmp_path, handlers
    ):
        server, _ = start_server(tmp_path / "store")
        baseline = threading.active_count()
        peers = [
            socket.create_connection(("127.0.0.1", server.port), timeout=10)
            for _ in range(5)
        ]
        try:
            for peer in peers:
                peer.sendall(b"GET /healthz HTTP/1.1\r\n")
            assert wait_until(lambda: len(handlers) == 5)
            assert wait_until(lambda: not any(t.is_alive() for t in handlers))
            assert threading.active_count() <= baseline
            for peer in peers:
                assert peer.recv(1) == b""  # hung up on, nothing answered
        finally:
            for peer in peers:
                peer.close()
            server.shutdown()
            server.server_close()

    def test_the_client_reopens_a_connection_dropped_while_idle(
        self, tmp_path, handlers
    ):
        server, client = start_server(tmp_path / "store")
        try:
            assert client.healthz()["status"] == "ok"
            dropped = client._connection().sock
            assert len(handlers) == 1
            assert wait_until(lambda: not handlers[0].is_alive())
            assert client.healthz()["status"] == "ok"
            assert client._connection().sock is not dropped
            assert len(handlers) == 2
        finally:
            client.close()
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


class RawPeer:
    """One raw socket to a daemon: bytes out, whole responses in."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buffer = b""

    def __enter__(self) -> "RawPeer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> bool:
        try:
            chunk = self.sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        self.buffer += chunk
        return bool(chunk)

    def response(self) -> Optional[SimpleNamespace]:
        """The next response, read to the end of its ``Content-Length``;
        ``None`` if the daemon hung up first."""
        while b"\r\n\r\n" not in self.buffer:
            if not self._fill():
                assert not self.buffer, self.buffer  # no half response
                return None
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", 0))
        while len(self.buffer) < length:
            assert self._fill(), "the daemon hung up inside a body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return SimpleNamespace(
            status=int(status_line.split()[1]), status_line=status_line,
            lines=lines, headers=headers, body=body,
        )

    def hung_up(self) -> bool:
        """Whether the daemon closes the connection (waits up to 5 s)."""
        self.sock.settimeout(5)
        try:
            return not self.buffer and not self._fill()
        except TimeoutError:
            return False


def _request_line_of(size: int) -> bytes:
    """A ``GET /healthz?…`` request line of ``size`` bytes, its line end
    included."""
    frame = b"GET /healthz? HTTP/1.1\r\n"
    return frame[:13] + b"a" * (size - len(frame)) + frame[13:]


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


    #: Heads the strict grammar refuses, each sent without anything after
    #: the line that is refused, and the status it answers.
    _REFUSED_HEADS = {
        "two-word request line": (b"GET /healthz\r\n\r\n", 400),
        "one-word request line": (b"NONSENSE\r\n\r\n", 400),
        "HTTP/2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        "HTTP/3.0": (b"GET /healthz HTTP/3.0\r\n\r\n", 505),
        "HTTP/1.2": (b"GET /healthz HTTP/1.2\r\n\r\n", 400),
        "HTTP/0.9": (b"GET /healthz HTTP/0.9\r\n\r\n", 400),
        "two blanks in the request line": (
            b"GET  /healthz HTTP/1.1\r\n\r\n", 400
        ),
        "a blank after the version": (b"GET /healthz HTTP/1.1 \r\n\r\n", 400),
        "obs-fold": (b"GET /healthz HTTP/1.1\r\nX-Note: a\r\n  b\r\n", 400),
        "space before the colon": (b"GET /healthz HTTP/1.1\r\nHost : x\r\n", 400),
        "tab before the colon": (b"GET /healthz HTTP/1.1\r\nHost\t: x\r\n", 400),
        "no colon": (b"GET /healthz HTTP/1.1\r\nHost\r\n", 400),
        "empty name": (b"GET /healthz HTTP/1.1\r\n: x\r\n", 400),
        "a bare CR inside a value": (
            b"GET /healthz HTTP/1.1\r\nX-Note: a\rb\r\n", 400
        ),
        "differing Content-Length values": (
            b"POST /healthz HTTP/1.1\r\nContent-Length: 5\r\n"
            b"Content-Length: 6\r\n",
            400,
        ),
        "101 headers": (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(101)),
            431,
        ),
        "a 65 537-byte header line": (
            b"GET /healthz HTTP/1.1\r\nX-Long: "
            + b"a" * (65537 - len(b"X-Long: \r\n")) + b"\r\n",
            431,
        ),
        "a 65 537-byte request line": (_request_line_of(65537), 414),
    }

    @pytest.mark.parametrize("case", sorted(_REFUSED_HEADS))
    def test_a_refused_head_is_one_json_send_and_a_close(self, wire, case):
        """Every error of the head parser is a JSON body in one send
        with ``Connection: close``, and the daemon hangs up."""
        head, expected = self._REFUSED_HEADS[case]
        del wire.server.sends[:]
        with RawPeer(wire.server.port) as peer:
            peer.send(head)
            answer = peer.response()
            assert answer.status == expected, (case, answer)
            assert answer.headers["Content-Type"] == "application/json"
            assert answer.headers["Connection"] == "close"
            assert isinstance(json.loads(answer.body)["error"], str)
            assert peer.hung_up(), case
        assert len(wire.server.sends) == 1, (case, wire.server.sends)

    def test_the_limits_are_inclusive(self, wire):
        """100 header lines and a 65 536-byte header or request line are
        still a head (the stdlib counted the blank line that ends a head
        as a header, so it refused a 100th header with a 431)."""
        heads = [
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(100)),
            b"GET /healthz HTTP/1.1\r\n"
            + b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")) + b"\r\n",
            _request_line_of(65536),
        ]
        with RawPeer(wire.server.port) as peer:
            for head in heads:
                peer.send(head + b"\r\n")
                assert peer.response().status == 200

    @pytest.mark.parametrize(
        "sent",
        [
            b"",
            b"GET /heal",
            b"GET /healthz HTTP/1.1\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: 12",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
            b"GET /healthz HTTP/1.1\r\n\r\nGET /cor",
        ],
    )
    def test_a_peer_that_hangs_up_inside_a_head_gets_nothing(
        self, wire, capsys, sent
    ):
        """The peer stops writing after part of a request line or of a
        head: the daemon answers whole requests only, writes no byte for
        the part, and closes without a traceback."""
        whole = sent.count(b"\r\n\r\n")
        with RawPeer(wire.server.port) as peer:
            peer.send(sent)
            peer.sock.shutdown(socket.SHUT_WR)
            for _ in range(whole):
                assert peer.response().status == 200
            assert peer.hung_up(), sent  # end of stream, not a byte more
        assert "Traceback" not in capsys.readouterr().err

    def test_a_peer_that_resets_inside_a_head_leaves_no_traceback(
        self, wire, capsys
    ):
        accepted = len(wire.server.accepted)
        peer = socket.create_connection(("127.0.0.1", wire.server.port))
        peer.sendall(b"GET /healthz HTTP/1.1\r\nHost")
        deadline = time.monotonic() + 30
        while len(wire.server.accepted) == accepted and time.monotonic() < deadline:
            time.sleep(0.01)
        handled = wire.server.accepted[accepted]
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()  # a linger of 0 s: the close is a reset
        while handled.fileno() != -1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handled.fileno() == -1
        assert "Traceback" not in capsys.readouterr().err

    def test_http_date_is_the_stdlib_imf_fixdate(self, monkeypatch):
        """``_http_date`` writes what ``email.utils.formatdate(s,
        usegmt=True)`` wrote, for a second of every day of a leap year
        (every weekday, every month, 29 February) and across two year
        ends, at times of day spread over the day."""
        from email.utils import formatdate

        first = 1704067200  # 2024-01-01 00:00:00 UTC
        seconds = [first + day * 86400 + day * 3677 % 86400 for day in range(366)]
        seconds += [first - 1, first, 946684799, 946684800, 0]
        clock = SimpleNamespace(time=None, gmtime=time.gmtime)
        monkeypatch.setattr(daemon, "time", clock)
        for second in seconds:
            clock.time = lambda: second + 0.75
            assert daemon._http_date() == formatdate(second, usegmt=True)

    @pytest.mark.parametrize(
        "spelling",
        ["content-length", "CONTENT-LENGTH", "Content-length", "cOnTeNt-LeNgTh"],
    )
    def test_header_names_in_any_case(self, wire, spelling):
        body = NEW_MOVIE.encode("utf-8")
        status, expected = exchange(
            wire.connection, "POST", f"/corpora/{wire.digest}/match", body
        )
        assert status == 200
        with RawPeer(wire.server.port) as peer:
            peer.send(
                f"POST /corpora/{wire.digest}/match HTTP/1.1\r\n"
                f"hOsT: 127.0.0.1\r\n{spelling}: {len(body)}\r\n"
                "CONNECTION: CLOSE\r\n\r\n".encode("ascii") + body
            )
            answer = peer.response()
            assert answer.status == 200
            assert json.loads(answer.body) == expected
            assert answer.headers["Connection"] == "close"
            assert peer.hung_up()

    def test_equal_duplicate_content_lengths_are_one_length(self, wire):
        body = NEW_MOVIE.encode("utf-8")
        with RawPeer(wire.server.port) as peer:
            peer.send(
                f"POST /corpora/{wire.digest}/match HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"content-length:  {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            assert peer.response().status == 200
            peer.send(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert peer.response().status == 200  # still in step

    def test_http_1_0_closes_unless_keep_alive(self, wire):
        with RawPeer(wire.server.port) as peer:
            peer.send(b"GET /healthz HTTP/1.0\r\n\r\n")
            answer = peer.response()
            assert (answer.status, answer.headers["Connection"]) == (200, "close")
            assert peer.hung_up()
        with RawPeer(wire.server.port) as peer:
            for _ in range(2):
                peer.send(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                answer = peer.response()
                assert answer.status == 200
                assert "Connection" not in answer.headers
            peer.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert peer.response().headers["Connection"] == "close"
            assert peer.hung_up()

    def test_expect_100_continue_is_answered_before_the_body(self, wire):
        body = NEW_MOVIE.encode("utf-8")
        status, expected = exchange(
            wire.connection, "POST", f"/corpora/{wire.digest}/match", body
        )
        with RawPeer(wire.server.port) as peer:
            peer.send(
                f"POST /corpora/{wire.digest}/match HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\n\r\n".encode("ascii")
            )
            interim = peer.response()  # sent before any of the body
            assert interim.status_line == "HTTP/1.1 100 Continue"
            assert (interim.lines, interim.body) == ([], b"")
            peer.send(body)
            answer = peer.response()
            assert (answer.status, json.loads(answer.body)) == (status, expected)

    def test_a_request_never_reaches_the_stdlib_head_parser_or_writer(
        self, wire, monkeypatch
    ):
        """One head parser and one response writer: the stdlib's header
        parser (the ``email`` feed parser behind ``parse_headers``), its
        request-line parser and its header writer all raise here, and
        every kind of request still round-trips."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the stdlib's HTTP head code was reached")

        monkeypatch.setattr(http.client, "parse_headers", unreachable)
        for name in (
            "parse_request", "send_response", "send_response_only",
            "send_header", "end_headers", "handle_expect_100",
        ):
            monkeypatch.setattr(BaseHTTPRequestHandler, name, unreachable)
        body = NEW_MOVIE.encode("utf-8")
        corpus = f"/corpora/{wire.digest[:12]}"
        with RawPeer(wire.server.port) as peer:
            for head, payload, expected in [
                (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", b"", [200]),
                (f"GET {corpus}/match?object_id=0 HTTP/1.1\r\n\r\n", b"", [200]),
                (
                    f"POST {corpus}/match HTTP/1.1\r\nExpect: 100-continue\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n",
                    body,
                    [100, 200],
                ),
                (b"GET /nope HTTP/1.1\r\n\r\n", b"", [404]),
                (b"DELETE /healthz HTTP/1.1\r\n\r\n", b"", [501]),
            ]:
                peer.send(head.encode("ascii") if isinstance(head, str) else head)
                peer.send(payload)
                assert [peer.response().status for _ in expected] == expected
        with RawPeer(wire.server.port) as peer:
            peer.send(b"GET /healthz HTTP/1.1\r\nHost : x\r\n")
            assert peer.response().status == 400


class _StdlibHandler(BaseHTTPRequestHandler, _Handler):
    """The stdlib's own keep-alive loop (``handle`` and
    ``handle_one_request``), request-head parser (``parse_request``) and
    response writer (``send_response`` + ``end_headers``), routed into
    the daemon's ``_dispatch``: the oracle for ``_Handler.handle``,
    ``_Handler.parse_request`` and ``_Handler._send_json``.  Only the
    JSON shape of an error and the quiet log are the daemon's."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1  # the stdlib writer needs the buffer for one send
    send_error = _Handler.send_error
    log_message = _Handler.log_message

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        self.wfile.flush()


class _StdlibServer(DetectionServer):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.RequestHandlerClass = _StdlibHandler


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """The daemon and its stdlib twin over one store and one corpus."""
    tmp = tmp_path_factory.mktemp("twins")
    spec = write_example(tmp)
    servers = [
        cls(("127.0.0.1", 0), str(tmp / "store"), quiet=True)
        for cls in (DetectionServer, _StdlibServer)
    ]
    digests = set()
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        digests.add(client.open_corpus(spec)["digest"])
        client.close()
    (digest,) = digests
    yield SimpleNamespace(
        strict=servers[0].port, stdlib=servers[1].port, digest=digest
    )
    for server in servers:
        server.shutdown()
        server.server_close()


#: (method, target, body) of the requests the oracle sends; ``{d}`` is
#: the digest.  No write: both daemons must keep one corpus state.
_ORACLE_REQUESTS = [
    ("GET", "/healthz", b""),
    ("GET", "/corpora", b""),
    ("GET", "//healthz", b""),
    ("GET", "/corpora/{d}/match?object_id=0", b""),
    ("GET", "/corpora/{d12}/match?object_id=2&top=1&include_possible=on", b""),
    ("GET", "/corpora/{d}/match?object_id=99", b""),
    ("POST", "/corpora/{d}/match", NEW_MOVIE.encode("utf-8")),
    ("POST", "/corpora/{d}/match", b"<not-xml"),
    ("POST", "/corpora", b"[]"),
    ("POST", "/nope", b"{}"),
    ("PUT", "/healthz", b""),
]

#: Headers a client may add; values with inner blanks and repeats drawn.
_EXTRA_FIELDS = [
    ("Host", "127.0.0.1"),
    ("Accept", "*/*"),
    ("User-Agent", "oracle/1.0 (test)"),
    ("Accept-Encoding", "gzip, deflate"),
    ("X-Trace", "a b\tc"),
    ("Content-Type", "application/xml"),
    ("Expect", "100-continue"),
    ("Expect", "100-Continue"),
    ("Connection", "upgrade"),
]


def _cased(name: str):
    return st.lists(
        st.booleans(), min_size=len(name), max_size=len(name)
    ).map(lambda upper: "".join(
        c.upper() if up else c.lower() for c, up in zip(name, upper)
    ))


#: Ways to break the strict grammar only: each takes the request line and
#: the header lines and returns them broken.
_STRICT_DEFECTS = {
    "two blanks in the request line": lambda line, fields: (
        line.replace(" ", "  ", 1), fields
    ),
    "a blank after the version": lambda line, fields: (line + " ", fields),
    "a blank before a colon": lambda line, fields: (
        line, ["X-Note : a"] + fields
    ),
    "obs-fold": lambda line, fields: (line, fields + ["X-Note: a", "\tb"]),
    "a name that is no token": lambda line, fields: (
        line, ["X@Note: a"] + fields
    ),
    "differing Content-Length values": lambda line, fields: (
        line, fields + ["Content-Length: 1", "Content-Length: 2"]
    ),
}


@st.composite
def _request_heads(draw):
    """A request: its bytes (target still holding ``{d}``) and the
    strict-only defect drawn into its head, if any."""
    method, target, body = draw(st.sampled_from(_ORACLE_REQUESTS))
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    fields = draw(st.lists(st.sampled_from(_EXTRA_FIELDS), max_size=4))
    connection = draw(st.sampled_from(
        [None, "close", "keep-alive", "Close", "KEEP-ALIVE", "", "close, te"]
    ))
    if connection is not None:
        fields.append(("Connection", connection))
    if body or draw(st.booleans()):
        fields.append(("Content-Length", str(len(body))))
    lines = []
    for name, value in draw(st.permutations(fields)):
        lead = draw(st.sampled_from(["", " ", "  ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t "]))
        lines.append(f"{draw(_cased(name))}:{lead}{value}{trail}")
    request_line = f"{method} {target} {version}"
    defect = draw(st.one_of(st.none(), st.sampled_from(sorted(_STRICT_DEFECTS))))
    if defect is not None:
        request_line, lines = _STRICT_DEFECTS[defect](request_line, lines)
    head = "\r\n".join([request_line, *lines, "", ""])
    return head.encode("latin-1"), body, defect


def _converse(port: int, request: bytes) -> tuple[list, bool]:
    """Every response to one request (a ``100 Continue`` included), and
    whether the connection stayed open for another request."""
    with RawPeer(port) as peer:
        peer.send(request)
        answers = [peer.response()]
        while answers[-1] is not None and answers[-1].status == 100:
            answers.append(peer.response())
        try:
            peer.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        except OSError:
            return answers, False
        probe = peer.response()
        return answers, probe is not None and probe.status == 200


def _without_date(answer) -> tuple:
    dates = [line for line in answer.lines if line.startswith("Date: ")]
    assert len(dates) == (0 if answer.status == 100 else 1), answer.lines
    return (
        answer.status_line,
        [line for line in answer.lines if not line.startswith("Date: ")],
        answer.body,
    )


#: Raw requests that exercise the keep-alive loop rather than the head
#: grammar: the request-line limit, a bare line end, LF-only line ends,
#: a method the daemon does not serve, two requests in one send.
_LOOP_REQUESTS = {
    "a 65 536-byte request line": _request_line_of(65536) + b"\r\n",
    "a 65 537-byte request line": _request_line_of(65537) + b"\r\n",
    "a bare line end": b"\r\n",
    "LF-only line ends": b"GET /healthz HTTP/1.1\nHost: x\n\n",
    "an unsupported method": b"PATCH /healthz HTTP/1.1\r\n\r\n",
    "HTTP/1.0 kept alive": (
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    ),
    "two requests in one send": (
        b"GET /healthz HTTP/1.1\r\n\r\n"
        b"GET /corpora HTTP/1.1\r\nConnection: close\r\n\r\n"
    ),
}


class TestHeadOracle:
    """The strict head parser and the one-string response head against
    the stdlib's: wherever both grammars take a head, the two daemons
    answer with the same status line, header lines (``Date`` aside),
    JSON body bytes and keep-alive outcome; where only the strict one
    refuses it, the answer is a JSON 4xx and the connection closes."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=_request_heads())
    def test_strict_head_answers_like_the_stdlib(self, twins, drawn):
        head, body, defect = drawn
        request = head.replace(b"{d}", twins.digest.encode("ascii"))
        request = request.replace(b"{d12}", twins.digest[:12].encode("ascii"))
        strict, strict_kept = _converse(twins.strict, request + body)
        if defect is not None:
            (answer,) = strict
            assert 400 <= answer.status < 500, (defect, answer)
            assert answer.headers["Connection"] == "close", defect
            assert json.loads(answer.body)["error"], defect
            assert not strict_kept, defect
            return
        stdlib, stdlib_kept = _converse(twins.stdlib, request + body)
        assert [_without_date(a) for a in strict] == [
            _without_date(a) for a in stdlib
        ], request
        assert strict_kept == stdlib_kept, request

    @pytest.mark.parametrize("case", sorted(_LOOP_REQUESTS))
    def test_the_loop_answers_like_the_stdlib(self, twins, case):
        request = _LOOP_REQUESTS[case]
        strict, strict_kept = _converse(twins.strict, request)
        stdlib, stdlib_kept = _converse(twins.stdlib, request)
        assert [a and _without_date(a) for a in strict] == [
            a and _without_date(a) for a in stdlib
        ], case
        assert strict_kept == stdlib_kept, case


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
