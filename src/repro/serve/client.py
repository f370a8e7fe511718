"""A thin stdlib client for the detection daemon.

Used by the test suite and the CI round trip; also the
reference for how to talk to the daemon from anything that can speak
HTTP (the README's curl examples mirror these calls).  ``http.client``
only — the client must not import more than the daemon does.

Each calling thread keeps one persistent HTTP/1.1 connection to the
daemon, so a sequence of calls pays for one TCP handshake, not one per
call, and exercises the daemon's keep-alive path the way a real client
does.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Optional


class ServeError(RuntimeError):
    """An error response from the daemon (JSON ``{"error": ...}``)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """One daemon endpoint, e.g. ``ServeClient("http://127.0.0.1:8765")``."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._url = urllib.parse.urlsplit(self.base_url)
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection (it reopens on use)."""
        self._connection().close()

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def catalog(self) -> dict:
        """The store catalog plus currently resident sessions."""
        return self._request("GET", "/corpora")

    def open_corpus(self, spec, files: Optional[dict] = None) -> dict:
        """Open (warm-load or build) a corpus; returns its digest record.

        ``spec`` is a :class:`~repro.api.RunSpec` or a plain dict of its
        fields; ``files`` optionally uploads input texts inline, keyed
        by the names the spec's paths use.
        """
        spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        body: dict = {"spec": spec_dict, "files": files} if files else spec_dict
        return self._request("POST", "/corpora", json_body=body)

    def match(
        self,
        digest: str,
        object_id: Optional[int] = None,
        element: Optional[str] = None,
        theta_cand: Optional[float] = None,
        include_possible: bool = False,
        top: Optional[int] = None,
    ) -> dict:
        """Duplicate partners of one object (id, or one-candidate XML)."""
        if (object_id is None) == (element is None):
            raise ValueError("pass exactly one of object_id or element")
        params: dict = {}
        if object_id is not None:
            params["object_id"] = object_id
        if theta_cand is not None:
            params["theta_cand"] = theta_cand
        if include_possible:
            params["include_possible"] = "true"
        if top is not None:
            params["top"] = top
        path = _corpus_path(digest, "match") + _query(params)
        if element is None:
            return self._request("GET", path)
        return self._request(
            "POST", path, raw_body=element.encode("utf-8"),
            content_type="application/xml",
        )

    def detect(self, digest: str, theta_cand: Optional[float] = None) -> dict:
        params = {} if theta_cand is None else {"theta_cand": theta_cand}
        return self._request(
            "POST", _corpus_path(digest, "detect") + _query(params)
        )

    def extend(self, digest: str, document: str) -> dict:
        """Incrementally ingest an XML document into the warm session."""
        return self._request(
            "POST",
            _corpus_path(digest, "extend"),
            raw_body=document.encode("utf-8"),
            content_type="application/xml",
        )

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        json_body: Optional[dict] = None,
        raw_body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> dict:
        data = raw_body
        if json_body is not None:
            data = json.dumps(json_body).encode("utf-8")
        target = self._url.path + path
        headers = {"Content-Type": content_type} if data else {}
        connection = self._connection()
        kept_alive = connection.sock is not None
        try:
            response, body = _round_trip(connection, method, target, data, headers)
        except (ConnectionError, http.client.HTTPException):
            # The daemon may drop an idle kept-alive connection; that
            # says nothing about the request, so reopen and send it once
            # more.  A fresh connection that fails is a real error.
            if not kept_alive:
                raise
            response, body = _round_trip(connection, method, target, data, headers)
        if response.status >= 400:
            try:
                message = json.loads(body)["error"]
            except Exception:  # noqa: BLE001 - non-JSON error body
                message = response.reason
            raise ServeError(response.status, message)
        return json.loads(body)

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = (
                http.client.HTTPSConnection
                if self._url.scheme == "https"
                else http.client.HTTPConnection
            )
            connection = self._local.connection = factory(
                self._url.hostname, self._url.port, timeout=self.timeout
            )
        return connection


def _round_trip(
    connection: http.client.HTTPConnection,
    method: str,
    target: str,
    data: Optional[bytes],
    headers: dict,
) -> tuple[http.client.HTTPResponse, bytes]:
    try:
        connection.request(method, target, body=data, headers=headers)
        response = connection.getresponse()
        return response, response.read()
    except BaseException:
        # Never keep a connection with a half-sent request or a
        # half-read response on it; the next call reopens.
        connection.close()
        raise


def _corpus_path(digest: str, action: str) -> str:
    """``/corpora/<digest>/<action>`` with the digest percent-quoted, so
    whatever a caller passes stays one path segment (the daemon decodes
    it back): a ``?`` or ``/`` cannot end it and name another route."""
    return f"/corpora/{urllib.parse.quote(digest, safe='')}/{action}"


def _query(params: dict) -> str:
    if not params:
        return ""
    return "?" + urllib.parse.urlencode(params)
