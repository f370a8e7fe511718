"""Detection-as-a-service: a threaded HTTP daemon over warm sessions.

The CLI so far is one-shot — build or warm-load an index, answer,
exit.  This daemon keeps :class:`~repro.api.DetectionSession` objects
standing (the prepared-once/query-many shape the session + store stack
was built for) and serves single-object ``match()`` lookups, batch
``detect()`` runs, and incremental ``extend()`` over plain HTTP.
Stdlib only: :class:`http.server.ThreadingHTTPServer`, one thread per
request.

Routes (JSON in/out unless noted):

* ``GET  /healthz`` — liveness + resident session count;
* ``GET  /corpora`` — the store catalog plus resident sessions;
* ``POST /corpora`` — open a corpus: the body is a
  :class:`~repro.api.RunSpec` JSON object (paths readable by the
  server), or an envelope ``{"spec": {...}, "files": {name: text}}``
  uploading the inputs inline; warm-starts from the store by content
  digest, builds and saves on a miss.  Returns the digest every other
  route is keyed by;
* ``GET/POST /corpora/<digest>/match`` — duplicate partners of one
  object: ``?object_id=N`` for a corpus object, or POST an XML
  document containing one foreign candidate element.  ``theta_cand``,
  ``include_possible``, and ``top`` ride as query parameters.  Runs
  under the session's *read* lock — concurrent matches never queue
  behind each other;
* ``POST /corpora/<digest>/detect`` — the full batch run
  (``?theta_cand=`` optional); writer lock;
* ``POST /corpora/<digest>/extend`` — incremental ingestion of a
  posted XML document; writer lock.  The delta lives in memory only:
  the content digest still names the *stored* corpus, and an evicted
  session reloads without the extension (responses carry ``objects``
  so clients can tell).

``<digest>`` accepts any unique prefix of a stored/resident digest.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .._lazy import preload
from ..api.spec import RunSpec
from ..core.config import check_thresholds
from ..core.source import Source
from ..ingest.store import IndexStore
from ..xmlkit.parser import parse
from ..xmlkit.tree import XMLError
from ..xmlkit.xpath import compile_path
from .sessions import SessionEntry, SessionRegistry

# Everywhere else a module is imported by the first call that needs it;
# the daemon is the one long-lived process and does the opposite: all of
# the program that a route can reach — a cold open with or without
# XSDs, ``detect()`` under every backend,
# the first ``extend()``, a response's XML — is imported here, before
# the socket listens, so no request and no lock-free reader thread ever
# loads a ``repro`` module (``tests/test_import_closure.py`` holds the
# list to it).  The standard library's pool machinery, which
# ``repro.engine.pool`` imports when a pool opens, stays with the first
# ``detect()`` whose spec asks for workers, as it always has: it is a
# MiB of resident memory that a daemon serving serial specs would never
# use.
preload(
    # what every corpus runs
    "repro.api.session",
    "repro.api.corpus",
    "repro.api.batch",
    "repro.core.selection",
    "repro.framework.incremental",
    "repro.xmlkit.schema_infer",
    "repro.xmlkit.serialize",
    # what only some specs ask for
    "repro.core.conditions",
    "repro.xmlkit.schema_parser",
    "repro.engine.pool",
)

_TRUE = frozenset({"1", "true", "yes", "on"})

#: The largest request body the daemon reads; a larger declared
#: ``Content-Length`` is answered 413 before any of it is read.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class DetectionServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one index store."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        store_dir: str,
        max_sessions: int = 4,
        quiet: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = IndexStore(store_dir)
        self.registry = SessionRegistry(self.store, capacity=max_sessions)
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(BaseHTTPRequestHandler):
    server: DetectionServer  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # Wire contract: head and body of a response collect in a buffered
    # ``wfile`` and leave in one send (a head segment followed by a
    # small body segment is what Nagle holds until the client's delayed
    # ACK, ~40 ms per keep-alive request); TCP_NODELAY keeps the tail
    # segment of a body larger than the buffer from stalling the same way.
    wbufsize = -1
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        """The one response writer: JSON body, one flush."""
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

    def send_error(self, code, message=None, explain=None) -> None:
        """Errors the stdlib raises itself (bad request line, unsupported
        method) in the same JSON shape as :class:`ApiError`."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json(code, {"error": message})

    def _read_body(self) -> bytes:
        """The declared request body, read exactly once per request.

        Runs before routing, so a response that never looks at the body
        (an unknown route, a GET that carries one) cannot leave it in
        the stream to be parsed as the next request.  Where the length
        is unknowable, or above :data:`MAX_BODY_BYTES`, the connection
        closes after the response.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise ApiError(
                400,
                f"Content-Length must be a non-negative integer, "
                f"got {declared!r}",
            )
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise ApiError(411, "send the body with a Content-Length")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(
                413,
                f"request body of {length} bytes is over the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        params = parse_qs(split.query)
        try:
            body = self._read_body()
            payload, status = self._route(method, parts, params, body)
        except ApiError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except Exception:  # noqa: BLE001 - one request, not the daemon
            traceback.print_exc()
            self._send_json(500, {"error": "internal server error"})
        else:
            self._send_json(status, payload)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self,
        method: str,
        parts: list[str],
        params: dict[str, list[str]],
        body: bytes,
    ) -> tuple[dict, int]:
        if parts == ["healthz"] and method == "GET":
            return self._healthz()
        if parts == ["corpora"]:
            if method == "GET":
                return self._catalog()
            return self._open_corpus(body)
        if len(parts) == 3 and parts[0] == "corpora":
            digest, action = parts[1], parts[2]
            if action == "match":
                # A GET addresses a corpus object; its body is ignored.
                return self._match(
                    digest, params, body if method == "POST" else b""
                )
            if action == "detect" and method == "POST":
                return self._detect(digest, params)
            if action == "extend" and method == "POST":
                return self._extend(digest, body)
        raise ApiError(404, f"no route for {method} /{'/'.join(parts)}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> tuple[dict, int]:
        return {
            "status": "ok",
            "sessions": len(self.server.registry),
            "store": str(self.server.store.root),
        }, 200

    def _catalog(self) -> tuple[dict, int]:
        snapshots = [
            {
                "digest": info.digest,
                "real_world_type": info.real_world_type,
                "objects": info.objects,
                "sources": info.sources,
                "created": info.created,
            }
            for info in self.server.store.list()
        ]
        return {
            "snapshots": snapshots,
            "loaded": self.server.registry.digests(),
        }, 200

    def _open_corpus(self, body: bytes) -> tuple[dict, int]:
        data = self._json_body(body)
        files = {}
        if "spec" in data:
            spec_dict = data["spec"]
            files = data.get("files") or {}
            if not isinstance(spec_dict, dict) or not isinstance(files, dict):
                raise ApiError(400, "envelope needs object 'spec'/'files'")
        else:
            spec_dict = data
        if files:
            spec_dict = self._spool_uploads(spec_dict, files)
        try:
            spec = RunSpec.from_dict(spec_dict)
        except (TypeError, ValueError, LookupError) as exc:
            raise ApiError(400, f"bad RunSpec: {exc}") from None
        try:
            entry, origin = self.server.registry.open_spec(spec)
        except OSError as exc:
            raise ApiError(400, f"cannot read corpus inputs: {exc}") from None
        except XMLError as exc:
            raise ApiError(400, f"unparsable XML in corpus inputs: {exc}") from None
        return {
            "digest": entry.digest,
            "origin": origin,
            "real_world_type": entry.session.real_world_type,
            "objects": len(entry.session.ods),
        }, 200

    def _spool_uploads(self, spec_dict: dict, files: dict) -> dict:
        """Write inline-uploaded inputs under the store, remap paths.

        Upload names must be plain relative names, not ``.``, ``..`` or
        any other name made only of dots; each file lands in a
        per-request spool directory and any spec path equal to an
        uploaded name is rewritten to the spooled location.
        """
        spool_key = hashlib.sha256(
            json.dumps(sorted(files.items())).encode("utf-8")
        ).hexdigest()[:16]
        spool = self.server.store.root / "uploads" / spool_key
        spool.mkdir(parents=True, exist_ok=True)
        written = {}
        for name, text in files.items():
            if not re.fullmatch(r"[\w.\-]+", name) or not name.strip("."):
                raise ApiError(400, f"bad upload name {name!r}")
            if not isinstance(text, str):
                raise ApiError(400, f"upload {name!r} must be text")
            target = spool / name
            target.write_text(text, encoding="utf-8")
            written[name] = str(target)
        remapped = dict(spec_dict)
        remapped["documents"] = [
            written.get(p, p) for p in spec_dict.get("documents", [])
        ]
        remapped["schemas"] = [
            written.get(p, p) for p in spec_dict.get("schemas", [])
        ]
        mapping = spec_dict.get("mapping")
        remapped["mapping"] = written.get(mapping, mapping)
        return remapped

    def _match(
        self, digest: str, params: dict, body: bytes
    ) -> tuple[dict, int]:
        entry = self._entry(digest)
        theta = self._theta_param(params, entry)
        include_possible = self._flag_param(params, "include_possible")
        top = self._int_param(params, "top")
        if top is not None and top < 1:
            raise ApiError(400, f"top must be an integer >= 1, got {top}")
        with entry.lock.read_locked():
            session = entry.session
            if body:
                query = _candidate_element(session, body)
                target: Optional[int] = None
            else:
                target = query = self._int_param(params, "object_id")
                if target is None:
                    raise ApiError(
                        400,
                        "match needs ?object_id=N or a posted XML element",
                    )
            try:
                matches = session.match(
                    query, theta_cand=theta, include_possible=include_possible
                )
            except KeyError as exc:  # no such object id
                raise ApiError(404, str(exc.args[0])) from None
            except ValueError as exc:  # an element of another type
                raise ApiError(400, str(exc)) from None
        if top is not None:
            matches = matches[:top]
        return {
            "digest": entry.digest,
            "object_id": target,
            "matches": [
                {
                    "object_id": m.object_id,
                    "similarity": m.similarity,
                    "path": m.path,
                }
                for m in matches
            ],
        }, 200

    def _detect(self, digest: str, params: dict) -> tuple[dict, int]:
        entry = self._entry(digest)
        theta = self._theta_param(params, entry)
        # detect() mutates session state (the last-filter snapshot), so
        # it takes the writer lock like extend() does.
        with entry.lock.write_locked():
            result = entry.session.detect(theta_cand=theta)
        return {
            "digest": entry.digest,
            "summary": result.summary(),
            "duplicates": [
                [pair.left, pair.right, pair.similarity]
                for pair in result.duplicate_pairs
            ],
            "xml": result.to_xml(),
        }, 200

    def _extend(self, digest: str, body: bytes) -> tuple[dict, int]:
        entry = self._entry(digest)
        if not body:
            raise ApiError(400, "extend needs an XML document body")
        try:
            document = parse(body)
        except XMLError as exc:
            raise ApiError(400, f"unparsable XML: {exc}") from None
        with entry.lock.write_locked():
            update = entry.session.extend(Source(document))
            objects = len(entry.session.ods)
        return {
            "digest": entry.digest,
            "added": [od.object_id for od in update.added],
            "assignments": [list(pair) for pair in update.assignments],
            "duplicate_clusters": [
                list(cluster) for cluster in update.duplicate_clusters
            ],
            "objects": objects,
        }, 200

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _entry(self, digest: str) -> SessionEntry:
        registry = self.server.registry
        resolved = digest if len(digest) == 64 else registry.resolve(digest)
        if resolved is None:
            raise ApiError(404, f"unknown corpus digest {digest!r}")
        opened = registry.open_digest(resolved)
        if opened is None:
            raise ApiError(404, f"unknown corpus digest {digest!r}")
        return opened[0]

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise ApiError(400, f"bad JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise ApiError(400, "JSON body must be an object")
        return data

    @staticmethod
    def _theta_param(params: dict, entry: SessionEntry) -> Optional[float]:
        """The query's ``theta_cand``, checked before any lock is taken."""
        values = params.get("theta_cand")
        if not values:
            return None
        config = entry.session.config
        try:
            theta = float(values[-1])
            check_thresholds(config.theta_tuple, theta, config.possible_threshold)
        except ValueError as exc:
            raise ApiError(400, f"theta_cand={values[-1]!r}: {exc}") from None
        return theta

    @staticmethod
    def _int_param(params: dict, name: str) -> Optional[int]:
        values = params.get(name)
        if not values:
            return None
        try:
            return int(values[-1])
        except ValueError:
            raise ApiError(400, f"{name} must be an integer") from None

    @staticmethod
    def _flag_param(params: dict, name: str) -> bool:
        values = params.get(name)
        return bool(values) and values[-1].lower() in _TRUE


def _candidate_element(session, body: bytes):
    """The one candidate element of a posted XML document.

    The document must contain exactly one element matching the
    session's candidate XPaths — ambiguity would silently match the
    wrong object, so it is rejected rather than resolved.
    """
    try:
        document = parse(body)
    except XMLError as exc:
        raise ApiError(400, f"unparsable XML: {exc}") from None
    found = []
    for xpath in sorted(session.mapping.xpaths_of(session.real_world_type)):
        found.extend(compile_path(xpath).select(document))
    if not found:
        raise ApiError(
            400,
            f"posted document holds no {session.real_world_type!r} "
            "candidate under this corpus's mapping",
        )
    if len(found) > 1:
        raise ApiError(
            400,
            f"posted document holds {len(found)} candidate elements; "
            "post exactly one",
        )
    return found[0]


def serve(
    store_dir: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    max_sessions: int = 4,
    quiet: bool = False,
) -> int:
    """Run the daemon until interrupted (the CLI ``serve`` command)."""
    server = DetectionServer(
        (host, port), store_dir, max_sessions=max_sessions, quiet=quiet
    )
    print(
        f"serving detection on http://{host}:{server.port} "
        f"(store: {store_dir}, max {max_sessions} resident sessions)",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
