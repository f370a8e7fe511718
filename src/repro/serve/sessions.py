"""Session registry for the detection daemon.

The daemon's concurrency discipline lives here, not in the HTTP
handler:

* one :class:`ReadWriteLock` per session — ``match()`` and ``detect()``
  requests run concurrently under read locks (the session's read path
  is lock-free once the index is frozen, see ``CorpusIndex.freeze``,
  and fills its per-object maps by single dict stores), while
  ``extend()``, the one writer, serializes behind the writer lock;
* an LRU of warm sessions keyed by the :class:`~repro.ingest.IndexStore`
  content digest — the prepared-once/query-many shape: a corpus is
  built (or warm-loaded) once and then answers many queries;
* per-digest construction gates so two clients racing to open the same
  corpus build it once (the second waits and gets the first's session).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..ingest.store import IndexStore

#: The run-time settings that change a served answer but not the store
#: digest.  ``workers`` and ``use_blocking`` change neither (a session
#: runs every detection in one loop whatever ``workers`` says, and
#: blocking is lossless).
ANSWER_SETTINGS = (
    "theta_cand",
    "use_object_filter",
    "possible_threshold",
    "similar_semantics",
)


class SpecConflict(ValueError):
    """A spec names a resident corpus with other answer settings.

    ``conflicts`` maps each setting of :data:`ANSWER_SETTINGS` that
    differs to ``(resident value, requested value)``.
    """

    def __init__(self, digest: str, conflicts: dict[str, tuple]) -> None:
        described = "; ".join(
            f"{name}={resident!r} resident, {requested!r} requested"
            for name, (resident, requested) in conflicts.items()
        )
        super().__init__(
            f"corpus {digest[:12]} is open with other answer settings "
            f"({described})"
        )
        self.conflicts = conflicts


class ReadWriteLock:
    """A writer-preferring readers-writer lock (stdlib primitives only).

    Any number of readers share the lock; a writer excludes everyone.
    Writers are preferred: once one is waiting, new readers queue
    behind it, so a stream of ``match()`` traffic cannot starve an
    ``extend()`` forever.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass
class SessionEntry:
    """One warm corpus: its digest, build spec, session, and lock."""

    digest: str
    spec: object
    session: object
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)


class SessionRegistry:
    """LRU of warm :class:`~repro.api.DetectionSession` objects.

    ``capacity`` bounds resident sessions, not served corpora: an
    evicted digest warm-loads again from the store on its next request.
    An ``extend()`` delta lives only in the resident session: eviction
    (or a restart) loses it, and no response says so — the reloaded
    corpus is the stored snapshot's.
    """

    def __init__(self, store: IndexStore, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.store = store
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        #: digest -> construction gate: session construction serializes
        #: per digest (a build is a "write" on the not-yet-shared
        #: session), concurrent opens of *different* corpora proceed.
        self._gates: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[SessionEntry]:
        """The resident entry for a digest (LRU-touched), or ``None``."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
            return entry

    def digests(self) -> list[str]:
        """Resident digests, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def open_spec(self, spec) -> tuple[SessionEntry, str]:
        """Entry for a spec's corpus: resident, warm-loaded, or built.

        Returns ``(entry, origin)`` with origin one of ``"session"``
        (already resident), ``"warm"`` (loaded from the store), or
        ``"cold"`` (built from the spec and saved for next time).  The
        store digest leaves out the run-time settings, so a resident
        session serves a spec only if their :data:`ANSWER_SETTINGS`
        agree; otherwise :class:`SpecConflict` is raised.
        """
        digest = self.store.key_for(spec)
        entry, origin = self._open(digest, spec)
        if origin == "session":
            resident, requested = entry.session.config, spec.to_config()
            conflicts = {
                name: (getattr(resident, name), getattr(requested, name))
                for name in ANSWER_SETTINGS
                if getattr(resident, name) != getattr(requested, name)
            }
            if conflicts:
                raise SpecConflict(digest, conflicts)
        return entry, origin

    def open_digest(self, digest: str) -> Optional[tuple[SessionEntry, str]]:
        """Entry for a digest the daemon only knows from its store.

        The snapshot's manifest records the build spec, so a restarted
        daemon serves every cataloged corpus without clients
        re-uploading specs.  ``None`` if the digest (or its manifest
        spec) is unknown.
        """
        entry = self.get(digest)
        if entry is not None:
            return entry, "session"
        spec = self.store.spec_for(digest)
        if spec is None:
            return None
        return self._open(digest, spec)

    def resolve(self, prefix: str) -> Optional[str]:
        """Expand a digest prefix: resident sessions first, then store."""
        with self._lock:
            resident = [d for d in self._entries if d.startswith(prefix)]
        if len(resident) == 1:
            return resident[0]
        if resident:
            return None  # ambiguous
        return self.store.resolve_digest(prefix)

    # ------------------------------------------------------------------
    def _open(self, digest: str, spec) -> tuple[SessionEntry, str]:
        entry = self.get(digest)
        if entry is not None:
            return entry, "session"
        with self._lock:
            gate = self._gates.setdefault(digest, threading.Lock())
        with gate:
            entry = self.get(digest)  # built while we waited?
            if entry is not None:
                return entry, "session"
            session = self.store.load(spec, digest=digest)
            origin = "warm"
            if session is None:
                session = spec.build_session()
                self.store.save(spec, session, digest=digest)
                origin = "cold"
            entry = SessionEntry(digest=digest, spec=spec, session=session)
            with self._lock:
                self._entries[digest] = entry
                self._entries.move_to_end(digest)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                self._gates.pop(digest, None)
        return entry, origin
