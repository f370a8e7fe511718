"""Detection-as-a-service: a threaded HTTP daemon over warm sessions.

The CLI so far is one-shot — build or warm-load an index, answer,
exit.  This daemon keeps :class:`~repro.api.DetectionSession` objects
standing (the prepared-once/query-many shape the session + store stack
was built for) and serves single-object ``match()`` lookups, batch
``detect()`` runs, and incremental ``extend()`` over plain HTTP.
Stdlib only: :class:`socketserver.ThreadingTCPServer`, one thread per
connection; the HTTP on top is the daemon's own.  ``_Handler.handle``
is the keep-alive loop: read a request line, parse the head
(``_Handler.parse_request``), route ``GET`` and ``POST`` on
percent-decoded path segments (``_Handler._dispatch``), write one
pre-formatted response head with its body in one ``sendall``
(``_Handler._send_json``), and go round again until a response closes
the connection or the peer hangs up.  No ``http.server``,
``http.client``, ``ssl`` or ``email`` module is loaded in the process.

The request head.  The request line is ``METHOD SP target SP
HTTP/1.0`` or ``HTTP/1.1``: any other shape or version is a JSON 400,
HTTP/2 and above a 505.  Each header line is ``name:value`` with a
token name (any case; names are compared lower-cased) and no blank
before the colon; a line without a colon, a blank before it, an
obs-fold continuation line, or two ``Content-Length`` values that differ
is a JSON 400 that closes the connection (each is a way for two parsers
to disagree on where a request ends).  The stdlib's limits and outcomes
stay: a request line over 65 536 bytes is a 414, a header line over
65 536 bytes or more than 100 header lines a 431, a method other than
``GET`` and ``POST`` a 501, ``Connection: close`` / ``keep-alive`` and
the HTTP/1.0 default decide keep-alive as ``http.server`` did,
``Expect: 100-continue`` is answered ``100 Continue`` before the body
is read, and a leading ``//`` in the target is collapsed to ``/``.  A
peer that hangs up or resets before a head is whole (an empty read, a
last line without its line end) is not answered.

Routes (JSON in/out unless noted):

* ``GET  /healthz`` — liveness + resident session count;
* ``GET  /corpora`` — the store catalog plus resident sessions;
* ``POST /corpora`` — open a corpus: the body is a
  :class:`~repro.api.RunSpec` JSON object (paths readable by the
  server), or an envelope ``{"spec": {...}, "files": {name: text}}``
  uploading the inputs inline; warm-starts from the store by content
  digest, builds and saves on a miss.  Returns the digest every other
  route is keyed by.  A spec whose corpus is resident with other answer
  settings (``theta_cand``, ``use_object_filter``,
  ``possible_threshold``, ``similar_semantics``) is answered 409 with
  ``conflicts``: setting -> ``{"resident", "requested"}``;
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
Each path segment is percent-decoded before routing, so ``%61`` is
``a`` and a ``?`` inside a digest argument travels as ``%3F``
(:class:`~repro.serve.client.ServeClient` quotes what it puts in a
path); the query is the text after the first ``?``.
"""

from __future__ import annotations

import hashlib
import json
import re
import socketserver
import sys
import time
import traceback
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs, unquote

from .._lazy import preload
from ..api.spec import RunSpec
from ..core.config import check_thresholds
from ..core.source import Source
from ..ingest.store import IndexStore
from ..xmlkit.parser import parse
from ..xmlkit.tree import XMLError
from ..xmlkit.xpath import compile_path
from .sessions import SessionEntry, SessionRegistry, SpecConflict

# Everywhere else a module is imported by the first call that needs it;
# the daemon is the one long-lived process and does the opposite: all of
# the program that a route can reach — a cold open with or without
# XSDs, ``detect()``, the first ``extend()``, a response's XML — is
# imported here, before the socket listens, so no request and no
# lock-free reader thread ever loads a ``repro`` module
# (``tests/test_import_closure.py`` holds the list to it).
preload(
    # what every corpus runs
    "repro.api.session",
    "repro.api.corpus",
    "repro.core.selection",
    "repro.framework.clustering",
    "repro.framework.incremental",
    "repro.framework.result",
    "repro.xmlkit.schema_infer",
    "repro.xmlkit.serialize",
    # what only some specs ask for
    "repro.core.conditions",
    "repro.xmlkit.schema_parser",
)

_TRUE = frozenset({"1", "true", "yes", "on"})

#: The largest request body the daemon reads; a larger declared
#: ``Content-Length`` is answered 413 before any of it is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The stdlib's head limits (``http.client._MAXLINE`` / ``_MAXHEADERS``).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100

_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(
    rb"(%s) ([\x21-\x7e\x80-\xff]+) (HTTP/[0-9]\.[0-9])\r?\n" % _TOKEN
)
_FIELD_LINE = re.compile(
    rb"(%s):[ \t]*([\t\x20-\x7e\x80-\xff]*)\r?\n" % _TOKEN
)
_VERSIONS = frozenset({"HTTP/1.0", "HTTP/1.1"})
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_CLOSE = "Connection: close\r\n"
_HEXDIGITS = "0123456789abcdef"
#: The ``Server`` line ``http.server`` wrote, kept byte for byte.
_SERVER_LINE = f"Server: BaseHTTP/0.6 Python/{sys.version.split()[0]}\r\n"
#: English names, not ``strftime``'s: those follow the locale.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
#: Control characters escaped in a log line, as ``http.server`` did.
_LOG_ESCAPES = str.maketrans(
    {c: rf"\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
    | {ord("\\"): r"\\"}
)

#: ``(second, "Date" header text)``; swapped whole by one assignment,
#: so a reader sees the old pair or the new one, never a torn one.
_date: tuple[int, str] = (0, "")


def _http_date() -> str:
    """This second as an IMF-fixdate (RFC 9110), formatted once a second."""
    global _date
    second = int(time.time())
    cached = _date
    if cached[0] != second:
        t = time.gmtime(second)
        text = (
            f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
        )
        cached = _date = (second, text)
    return cached[1]


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body:
    ``{"error": message}`` plus the ``detail`` fields, if any."""

    def __init__(self, status: int, message: str, **detail) -> None:
        super().__init__(message)
        self.status = status
        self.detail = detail


class DetectionServer(socketserver.ThreadingTCPServer):
    """The daemon: a threading HTTP server bound to one index store."""

    allow_reuse_address = True
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


class _Handler(socketserver.StreamRequestHandler):
    server: DetectionServer  # type: ignore[assignment]
    # Wire contract: head and body of a response are one ``wfile.write``
    # on the unbuffered socket writer, so they leave in one ``sendall``
    # (a head segment followed by a small body segment is what Nagle
    # holds until the client's delayed ACK, ~40 ms per keep-alive
    # request); TCP_NODELAY keeps the tail segment of a large body from
    # stalling the same way.
    wbufsize = 0
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def handle(self) -> None:
        """The keep-alive loop: one request per turn, until a response
        closes the connection or the peer hangs up."""
        readline = self.rfile.readline
        try:
            while True:
                raw = readline(MAX_LINE_BYTES + 1)
                if len(raw) > MAX_LINE_BYTES:
                    self.requestline = self.command = ""
                    self.send_error(414)
                    return
                if not raw.endswith(b"\n"):
                    return  # the peer hung up, before or inside the line
                self.raw_requestline = raw
                if not self.parse_request():
                    return
                if self.command == "GET" or self.command == "POST":
                    self._dispatch(self.command)
                else:
                    self.send_error(
                        501, f"Unsupported method ({self.command!r})"
                    )
                if self.close_connection:
                    return
        except TimeoutError as exc:
            self.log_message("Request timed out: %r", exc)
        except ConnectionError:
            pass  # the peer reset the connection: there is no one to answer

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """The access / error line ``http.server`` wrote, unless quiet."""
        if self.server.quiet:
            return
        now = time.localtime()
        sys.stderr.write(
            f"{self.client_address[0]} - - [{now.tm_mday:02d}/"
            f"{_MONTHS[now.tm_mon - 1]}/{now.tm_year:04d} "
            f"{now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d}] "
            f"{(format % args).translate(_LOG_ESCAPES)}\n"
        )

    def parse_request(self) -> bool:
        """Read the request head (see the module docstring's grammar).

        The request line, with its line end, is in ``raw_requestline``;
        on success ``command``, ``path``, ``request_version``,
        ``close_connection`` and ``headers`` (lower-cased name -> the
        first value sent, blanks after the colon dropped) are set.  On failure the JSON error has
        been sent and the connection closes.
        """
        self.command = None
        self.close_connection = True
        raw = self.raw_requestline
        self.requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        if not self.requestline:
            return False  # a bare line end: hang up, as http.server does
        line = _REQUEST_LINE.fullmatch(raw)
        if line is None:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        version = self.request_version = line[3].decode("ascii")
        if version not in _VERSIONS:
            if version >= "HTTP/2":
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            else:
                self.send_error(400, f"Bad request version ({version!r})")
            return False
        self.command = line[1].decode("ascii")
        path = line[2].decode("iso-8859-1")
        if path.startswith("//"):  # never an absolute URI without scheme
            path = "/" + path.lstrip("/")
        self.path = path
        headers = self.headers = {}
        readline = self.rfile.readline
        for _ in range(MAX_HEADERS + 1):
            raw = readline(MAX_LINE_BYTES + 1)
            if raw == b"\r\n" or raw == b"\n":
                break
            if len(raw) > MAX_LINE_BYTES:
                self.send_error(431, "Line too long")
                return False
            if not raw.endswith(b"\n"):
                return False  # the peer hung up inside the head
            field = _FIELD_LINE.fullmatch(raw)
            if field is None:
                self.send_error(400, f"Bad header line {raw[:64]!r}")
                return False
            name = field[1].decode("ascii").lower()
            value = field[2].decode("iso-8859-1")
            if name not in headers:
                headers[name] = value
            elif (
                name == "content-length"
                and headers[name].strip() != value.strip()
            ):
                self.send_error(400, "Content-Length values differ")
                return False
        else:
            self.send_error(431, "Too many headers")
            return False
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )
        if (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _send_json(self, status: int, payload: dict) -> None:
        """The one response writer: JSON body, head and body in one write."""
        if not self.server.quiet:  # pragma: no cover - log formatting
            self.log_message('"%s" %s -', self.requestline, status)
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"{_STATUS_LINES[status]}{_SERVER_LINE}"
            f"Date: {_http_date()}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_CLOSE if self.close_connection else ''}\r\n"
        ).encode("latin-1")
        self.wfile.write(head + body if self.command != "HEAD" else head)

    def send_error(self, code: int, message: Optional[str] = None) -> None:
        """Errors of the HTTP layer (a bad request head, an unsupported
        method, an overlong request line) in the same JSON shape as
        :class:`ApiError`; the connection closes after them."""
        if message is None:
            message = HTTPStatus(code).phrase
        self.log_message("code %d, message %s", code, message)
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
        declared = (self.headers.get("content-length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise ApiError(
                400,
                f"Content-Length must be a non-negative integer, "
                f"got {declared!r}",
            )
        if "transfer-encoding" in self.headers:
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
        path, _, query = self.path.partition("?")
        parts = [unquote(part) for part in path.split("/") if part]
        params = parse_qs(query) if query else {}
        try:
            body = self._read_body()
            payload, status = self._route(method, parts, params, body)
        except ApiError as exc:
            self._send_json(exc.status, {"error": str(exc), **exc.detail})
        except Exception:  # noqa: BLE001 - one request, not the daemon
            traceback.print_exc()
            self._send_json(500, {"error": "internal server error"})
        else:
            self._send_json(status, payload)

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
        except SpecConflict as exc:
            raise ApiError(
                409,
                str(exc),
                conflicts={
                    name: {"resident": resident, "requested": requested}
                    for name, (resident, requested) in exc.conflicts.items()
                },
            ) from None
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
        # detect() only fills the filter scores, as match() does: it
        # reads alongside lookups and waits only for a write.
        with entry.lock.read_locked():
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
        # Only a whole digest skips the prefix lookup: the store builds
        # file names from it, and a decoded segment may hold "/" or "..".
        whole = len(digest) == 64 and not digest.strip(_HEXDIGITS)
        resolved = digest if whole else registry.resolve(digest)
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
