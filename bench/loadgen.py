"""Load generators for the daemon: a closed loop and an open loop.

Both drive persistent HTTP/1.1 connections (``http.client``; the daemon
declares ``protocol_version = "HTTP/1.1"``), one connection per thread,
and record every request — nothing is sampled or dropped, and a request
that raises or answers non-2xx is kept and counted as failed.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass
class Request:
    method: str
    path: str
    body: Optional[bytes] = None
    #: free-form label the caller uses to group samples ("match", ...)
    kind: str = "match"
    #: seconds after the window opens at which an open loop sends it
    due: float = 0.0


@dataclass
class Sample:
    request: Request
    #: when the request was due (open loop) or issued (closed loop)
    due: float
    sent: float
    done: float
    status: int
    body: bytes = b""
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """Open loop: from the due time, so a stall is charged to every
        request it delayed, not only to the one that was in flight."""
        return (self.done - self.due) * 1000

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000


class Connection:
    """One persistent connection; reconnects once after a failure."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._address = (host, port, timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def send(self, request: Request) -> tuple[int, bytes]:
        if self._conn is None:
            host, port, timeout = self._address
            self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        headers = {"Content-Type": "application/xml"} if request.body else {}
        try:
            self._conn.request(
                request.method, request.path, body=request.body, headers=headers
            )
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise


def perform(
    connection: Connection, request: Request, due: float, clock=time.perf_counter
) -> Sample:
    sent = clock()
    try:
        status, body = connection.send(request)
    except (OSError, http.client.HTTPException) as exc:
        return Sample(request, due, sent, clock(), 0, error=repr(exc))
    return Sample(request, due, sent, clock(), status, body)


def fresh_connection_request(host: str, port: int, request: Request) -> Sample:
    """One request on a connection of its own (connect time included)."""
    connection = Connection(host, port)
    try:
        return perform(connection, request, time.perf_counter())
    finally:
        connection.close()


def closed_loop(
    host: str,
    port: int,
    streams: Sequence[Sequence[Request]],
    seconds: float,
) -> tuple[list[Sample], float]:
    """One client thread per stream; each sends its next request only
    after the previous one completed, until ``seconds`` have passed.

    Returns the samples and the measured window length.
    """
    results: list[list[Sample]] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        connection = Connection(host, port)
        stream = streams[index]
        position = 0
        try:
            while time.perf_counter() < deadline:
                request = stream[position % len(stream)]
                position += 1
                issued = time.perf_counter()
                results[index].append(perform(connection, request, issued))
        finally:
            connection.close()

    _run_threads([lambda i=i: client(i) for i in range(len(streams))])
    window = time.perf_counter() - start
    return [sample for stream in results for sample in stream], window


def open_loop(
    host: str,
    port: int,
    schedules: Sequence[Sequence[Request]],
    follow_up: Optional[Callable[[Sample], Optional[Request]]] = None,
    clock=time.perf_counter,
    sleep=time.sleep,
    connect=Connection,
) -> tuple[list[Sample], float]:
    """One sender thread per schedule; each request goes out at its
    ``due`` offset whether or not earlier ones on other schedules have
    completed.  Within one schedule requests stay in order, so a stalled
    request delays the later ones — and their latency counts from their
    own due time, which is how the stall is charged to them.

    ``follow_up`` may return one more request to send on the same
    connection right after a sample completes (read-your-write); the
    follow-up's due time is the completion time of the sample it follows.
    """
    results: list[list[Sample]] = [[] for _ in schedules]
    start = clock()

    def sender(index: int) -> None:
        connection = connect(host, port)
        try:
            for request in schedules[index]:
                due = start + request.due
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sample = perform(connection, request, due, clock)
                results[index].append(sample)
                extra = follow_up(sample) if follow_up else None
                if extra is not None:
                    results[index].append(
                        perform(connection, extra, sample.done, clock)
                    )
        finally:
            connection.close()

    _run_threads([lambda i=i: sender(i) for i in range(len(schedules))])
    window = clock() - start
    return [sample for stream in results for sample in stream], window


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(target,), daemon=True)
        for target in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
