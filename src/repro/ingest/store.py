"""IndexStore: versioned, content-addressed index snapshots on disk.

A snapshot freezes the expensive half of session construction — parsed
documents, schema-driven description selection, and the generated
object descriptions — so a later process *loads* it instead of redoing
steps 1-3.  Snapshots are

* **content-addressed**: the snapshot key is a SHA-256 over the build
  *inputs* — document bytes, schema bytes, mapping bytes, and the
  OD-relevant configuration (heuristic, conditions, ``include_empty``,
  ``theta_tuple``) plus the candidate type.  Editing any input changes
  the key, so a warm lookup can never serve a stale corpus; run-time
  knobs that do not shape the index (``theta_cand``, execution policy,
  semantics, filter switches) deliberately stay out of the key and are
  taken from the *live* spec at load time;
* **versioned**: every snapshot records ``FORMAT_VERSION`` — in its
  payload and manifest, not in its key, so the rebuild overwrites the
  file it replaces.  Loading treats an unknown version, like a snapshot
  that cannot be decoded (truncated, bit-flipped, malformed), as a
  cache miss (the caller rebuilds and overwrites), never as an error —
  the upgrade policy is "bump the version, old snapshots age out"; see
  ROADMAP.md;
* **self-contained**: documents are stored inside the snapshot, so a
  serving process needs only the store, not the original files.

**Format 5** holds a session in the shape the loader needs.  A document
is the JSON text of the tree's structural record
(:func:`repro.xmlkit.document_record`), one string per document, which
a warm open keeps as it is: the tree is built
(:meth:`repro.xmlkit.Document.stored`) only when a reader first asks
for it — answering by id, ``detect()``, ``explain()`` and ``extend()``
never do — so a warm open parses no XML and builds no element, and
``content`` survives item for item when a tree is built.  An OD is
``id``, ``tuples`` and — when it has an element — ``doc`` + ``node`` +
``path``: the source index, the element's document-order rank and its
absolute XPath, by which answers name the object without a tree.  A
``seal`` (:func:`_seal`) covers the key, every tree text and every OD's
``doc`` / ``node`` / ``path``, so a load that verifies it and the other
sections leaves nothing for the first read to reject that a snapshot
writer did not seal.

The ``index`` section is the corpus index's term state
(:meth:`repro.core.index.IndexPartial.to_record`): |Ω|, q, and per
comparison key, in the index's order, the distinct values (a value's
position is its id), each value's occurrence row, and the q-gram
buckets and repeated-gram counts as the index built them.  A warm load
validates the section and the session adopts it as its index — no gram
is counted, no bucket appended, no tuple mapped to its key — so loaded
sessions answer ``detect()`` / ``match()`` identically to a cold build
(``tests/test_ingest_store.py``).  The buckets are stored rather than
per-value gram counters because they *are* what a probe reads: counters
would still have to be turned into buckets on every load.  Similar-value
groups are not stored; the first reads search them as in a built
session.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..core.index import IndexPartial
from ..core.source import Source
from ..framework.od import ObjectDescription, ODTuple
from ..xmlkit.tree import (
    Document,
    Element,
    XMLError,
    document_record,
    element_record,
)

#: Snapshot format version.  Bump on any layout change; loaders treat
#: other versions as a cache miss and rebuild.  2: an optional compact
#: ``index`` section.  3: documents as structural records, ODs point at
#: nodes by rank, no index.  4: the ``index`` section holds the term
#: rows and q-gram buckets a warm open adopts.  5: each tree as the JSON
#: text of its record, ODs with their element's path, a seal over both.
FORMAT_VERSION = 5

#: Everything reading, gunzipping, parsing or validating a damaged
#: snapshot raises; :meth:`IndexStore.load` answers each with a miss.
_UNDECODABLE = (
    OSError, EOFError, zlib.error, ValueError, KeyError, TypeError,
    IndexError, XMLError,
)

_SUFFIX = ".json.gz"
#: Compact catalog record written atomically next to each snapshot so
#: ``list()`` (and serving a corpus by digest) never gunzips the full
#: serialized corpus; a missing/corrupt manifest falls back to reading
#: the snapshot itself.
_MANIFEST_SUFFIX = ".manifest.json"


@dataclass(frozen=True)
class SnapshotInfo:
    """Catalog entry for one stored snapshot."""

    digest: str
    path: str
    real_world_type: str
    objects: int
    sources: int
    created: float


class IndexStore:
    """A directory of content-addressed session snapshots.

    ``save``/``load`` are keyed by a :class:`~repro.api.RunSpec`: the
    spec names the input files whose *contents* (not paths or mtimes)
    make up the key, so moving a corpus or touching a file without
    changing bytes keeps the snapshot warm.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_for(self, spec) -> str:
        """Content digest of everything that shapes ODs and the index
        (not the format version: a snapshot of another version is found
        under the same digest, read as a miss, and overwritten)."""
        material = {
            "real_world_type": spec.real_world_type,
            "theta_tuple": spec.theta_tuple,
            "heuristic": spec.heuristic,
            "conditions": spec.conditions,
            "include_empty": spec.include_empty,
            "documents": [_file_digest(path) for path in spec.documents],
            "schemas": [_file_digest(path) for path in spec.schemas],
            "mapping": _file_digest(spec.mapping),
        }
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _snapshot_path(self, digest: str) -> Path:
        return self.root / f"{digest}{_SUFFIX}"

    def _manifest_path(self, digest: str) -> Path:
        return self.root / f"{digest}{_MANIFEST_SUFFIX}"

    def contains(self, spec, digest: Optional[str] = None) -> bool:
        """Whether the store catalogs a current-format snapshot for the
        spec's content key — what :meth:`list` would show for it.

        Answered from the manifest sidecar's ``format`` where one can be
        read, from the snapshot body otherwise: a file of another
        :data:`FORMAT_VERSION`, or one without a manifest that does not
        decode, is a miss.  A manifest cannot see damage to the body
        beside it, so only :meth:`load` proves a snapshot usable.

        Pass ``digest`` (from :meth:`key_for`) to skip re-hashing the
        corpus — the key is a content digest over every input file, so
        callers touching several store methods should compute it once.
        """
        digest = digest or self.key_for(spec)
        path = self._snapshot_path(digest)
        return path.exists() and (
            self._manifest(digest) is not None
            or self._info_from_snapshot(path) is not None
        )

    def holds(self, digest: str) -> bool:
        """Whether any file sits under ``digest``, readable or not: what
        the next :meth:`save` overwrites."""
        return self._snapshot_path(digest).exists()

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, spec, session, digest: Optional[str] = None) -> str:
        """Snapshot a built session under the spec's content key.

        Returns the digest (``digest`` skips re-hashing, see
        :meth:`contains`).  The write is atomic (temp file + rename),
        so concurrent builders racing on the same key leave one intact
        snapshot rather than a torn file.
        """
        digest = digest or self.key_for(spec)
        sources = list(session.corpus)
        if len(sources) != len(spec.documents):
            raise ValueError(
                f"session corpus holds {len(sources)} sources but the spec "
                f"names {len(spec.documents)} documents — the content key "
                "would not cover the difference (extend()-ed sessions "
                "cannot be snapshotted; save a session built fresh from "
                "the spec)"
            )
        documents = [_as_document(source.document) for source in sources]
        # (source index, document-order rank) of the elements ODs point
        # at — of those only: one walk per tree, one entry per object.
        wanted = {id(od.element) for od in session.ods if od.element is not None}
        nodes = {
            id(element): (source_index, rank)
            for source_index, document in enumerate(documents)
            for rank, element in enumerate(document.iter())
            if id(element) in wanted
        }
        od_records = []
        for od in session.ods:
            record: dict[str, object] = {
                "id": od.object_id,
                "tuples": [[odt.value, odt.name] for odt in od.tuples],
            }
            if od.element is not None:
                where = nodes.get(id(od.element))
                if where is None:  # pragma: no cover - defensive
                    raise ValueError(
                        f"object {od.object_id} references an element "
                        "outside the session's corpus; cannot snapshot"
                    )
                record["doc"], record["node"] = where
                record["path"] = od.path
            od_records.append(record)
        texts = [
            json.dumps(
                document_record(document),
                separators=(",", ":"),
                default=element_record,
            )
            for document in documents
        ]
        schema_texts = [
            Path(path).read_text(encoding="utf-8") for path in spec.schemas
        ]
        schema_texts += [None] * (len(sources) - len(schema_texts))
        payload = {
            "format": FORMAT_VERSION,
            "key": digest,
            "created": time.time(),
            "real_world_type": session.real_world_type,
            "theta_tuple": spec.theta_tuple,
            "documents": texts,
            "schemas": schema_texts,
            "ods": od_records,
            "seal": _seal(digest, texts, od_records),
            "index": session.index.to_record(),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_scratch()
        final = self._snapshot_path(digest)
        scratch = final.with_suffix(final.suffix + f".tmp{os.getpid()}")
        scratch.write_bytes(_gzipped_json(payload))
        os.replace(scratch, final)
        # Catalog manifest: everything list() prints, plus the build
        # spec (absolute paths) so a server can warm a session from the
        # digest alone.  Written after the snapshot lands — a manifest
        # never describes a snapshot that is not there; the reverse
        # (snapshot without manifest, e.g. a pre-manifest store) is the
        # documented slow-path fallback.
        manifest = {
            "format": FORMAT_VERSION,
            "key": digest,
            "created": payload["created"],
            "real_world_type": session.real_world_type,
            "objects": len(od_records),
            "sources": len(sources),
            "spec": _portable_spec_dict(spec),
        }
        manifest_final = self._manifest_path(digest)
        manifest_scratch = manifest_final.with_suffix(
            manifest_final.suffix + f".tmp{os.getpid()}"
        )
        manifest_scratch.write_text(
            json.dumps(manifest, separators=(",", ":")), encoding="utf-8"
        )
        os.replace(manifest_scratch, manifest_final)
        return digest

    def sweep_scratch(self) -> int:
        """Remove scratch files abandoned by dead writers; returns count.

        A process dying between the scratch write and ``os.replace``
        used to leak ``*.tmp<pid>`` files forever.  Every ``save()``
        sweeps: a scratch file is removed unless its embedded pid is a
        *live* process (that writer's own ``os.replace`` will land or
        it will die and a later sweep collects it).  Unparsable scratch
        names are removed outright.
        """
        removed = 0
        for scratch in self.root.glob("*.tmp*"):
            _, _, tail = scratch.name.rpartition(".tmp")
            if tail.isdigit() and _pid_alive(int(tail)):
                continue
            try:
                scratch.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing sweeper
                pass
        return removed

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, spec, digest: Optional[str] = None):
        """Warm-start a session for ``spec``, or ``None`` on a miss.

        A miss is: no snapshot under the spec's content key, a snapshot
        written by another :data:`FORMAT_VERSION` (the version policy,
        format 4 included), one whose embedded key is not that digest (a
        file copied or renamed under another key), or one that cannot be
        decoded — truncated or bit-flipped gzip, not JSON, a section
        missing, a tree text that is not a string, a seal missing, not a
        string or not the seal of these tree texts and OD paths (a tree
        text or an OD's ``doc``, ``node`` or ``path`` edited, another
        snapshot's seal), an OD ``path`` that is not a string, an OD
        pointing at a document that is not there, two ODs sharing an id,
        an ``index`` section that is not the term state of those ODs'
        ids (:meth:`~repro.core.index.IndexPartial.from_record`).  In
        every case the caller rebuilds and :meth:`save` overwrites the
        file.

        No element is built here: each tree is decoded on the first
        read that needs it (:meth:`repro.xmlkit.Document.stored`), and
        checked then against the shape and paths the seal vouches for;
        a tree that fails raises :class:`~repro.xmlkit.XMLError` naming
        the snapshot, which only a writer sealing a malformed tree can
        bring about.

        The returned session carries the *live* spec's configuration:
        the stored ODs, documents, schemas and index state are reused
        (the index adopted as it was saved), so the session is
        bit-identical to one built cold from the same spec.
        """
        digest = digest or self.key_for(spec)
        path = self._snapshot_path(digest)
        try:  # one read, one gunzip, one JSON decode
            payload = json.loads(gzip.decompress(path.read_bytes()))
            if payload["format"] != FORMAT_VERSION or payload["key"] != digest:
                return None
            real_world_type, sources, ods, state = _restore(payload, str(path))
        except _UNDECODABLE:
            return None
        from ..api.corpus import Corpus
        from ..api.session import DetectionSession

        return DetectionSession(
            Corpus(sources),
            spec.load_mapping(),
            real_world_type,
            spec.to_config(),
            ods=ods,
            _state=state,
        )

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def list(self) -> list[SnapshotInfo]:
        """All readable current-format snapshots, newest first.

        Reads the compact per-snapshot manifest where one exists —
        cataloging a store must not gunzip and JSON-parse every full
        serialized corpus.  Snapshots without a (readable, current)
        manifest fall back to decoding the snapshot itself, so
        pre-manifest stores keep listing.  A manifest or snapshot whose
        embedded key is not the digest it is filed under describes
        another corpus and is not used.
        """
        if not self.root.is_dir():
            return []
        entries: list[SnapshotInfo] = []
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            digest = path.name[: -len(_SUFFIX)]
            info = self._info_from_manifest(digest, path)
            if info is None:
                info = self._info_from_snapshot(path)
            if info is not None:
                entries.append(info)
        entries.sort(key=lambda info: -info.created)
        return entries

    def _info_from_manifest(
        self, digest: str, path: Path
    ) -> Optional[SnapshotInfo]:
        manifest = self._manifest(digest)
        if manifest is None:
            return None
        return SnapshotInfo(
            digest=digest,
            path=str(path),
            real_world_type=manifest.get("real_world_type", ""),
            objects=int(manifest.get("objects", 0)),
            sources=int(manifest.get("sources", 0)),
            created=float(manifest.get("created", 0.0)),
        )

    def _info_from_snapshot(self, path: Path) -> Optional[SnapshotInfo]:
        """Slow path: derive the catalog entry from the snapshot body."""
        try:
            payload = json.loads(gzip.decompress(path.read_bytes()))
            digest = path.name[: -len(_SUFFIX)]
            if payload["format"] != FORMAT_VERSION or payload["key"] != digest:
                return None
            return SnapshotInfo(
                digest=digest,
                path=str(path),
                real_world_type=payload.get("real_world_type", ""),
                objects=len(payload.get("ods", ())),
                sources=len(payload.get("documents", ())),
                created=float(payload.get("created", 0.0)),
            )
        except _UNDECODABLE:
            return None

    def _manifest(self, digest: str) -> Optional[dict]:
        try:
            data = json.loads(
                self._manifest_path(digest).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("format") != FORMAT_VERSION
            or data.get("key") != digest
        ):
            return None
        return data

    # ------------------------------------------------------------------
    # Digest-first access (serving)
    # ------------------------------------------------------------------
    def spec_for(self, digest: str):
        """The build :class:`~repro.api.RunSpec` a snapshot's manifest
        recorded, or ``None`` (pre-manifest snapshot / unknown digest).

        This is what lets a long-running server answer for a corpus it
        only knows by content digest: ``spec_for`` + :meth:`load`
        reconstruct the session without the client re-sending the spec.
        """
        manifest = self._manifest(digest)
        if manifest is None:
            return None
        spec_dict = manifest.get("spec")
        if not isinstance(spec_dict, dict):
            return None
        from ..api.spec import RunSpec

        try:
            return RunSpec.from_dict(spec_dict)
        except (TypeError, ValueError, LookupError):
            return None

    def resolve_digest(self, prefix: str) -> Optional[str]:
        """Expand a digest prefix to the unique stored digest, if any.

        The prefix is compared as text, never built into a glob
        pattern: it comes from clients (a daemon route), and ``*`` or
        ``[0-9a-f]`` must match no digest rather than every one.
        """
        if not prefix or not self.root.is_dir():
            return None
        stored = (path.name[: -len(_SUFFIX)] for path in self.root.glob(f"*{_SUFFIX}"))
        matches = {digest for digest in stored if digest.startswith(prefix)}
        return matches.pop() if len(matches) == 1 else None


def _as_document(document: Document | Element) -> Document:
    return document if isinstance(document, Document) else Document(document)


def _restore(
    payload: dict, origin: str
) -> tuple[str, list[Source], list[ObjectDescription], IndexPartial]:
    """Real-world type, sources, ODs and index state of a format-5
    payload, which gives up the sections read (the index section's
    decoded lists become the index's).  What is used is validated
    first — the seal over the tree texts and OD paths (:func:`_seal`),
    ODs indexing the document list with integers read from disk, the
    index section describing exactly these ODs' ids
    (:meth:`IndexPartial.from_record`) — and anything malformed raises
    one of ``_UNDECODABLE``.

    No element is built: each document keeps its tree text
    (:meth:`Document.stored`, named after ``origin`` should it not
    decode) and each OD its document, rank and path
    (:meth:`ObjectDescription.stored`).
    """
    real_world_type = payload["real_world_type"]
    texts, schemas = payload.pop("documents"), payload.pop("schemas")
    records = payload.pop("ods")
    if not (
        type(real_world_type) is str
        and type(texts) is list
        and all(type(text) is str for text in texts)
        and type(schemas) is list
        and len(schemas) == len(texts)
        and all(text is None or type(text) is str for text in schemas)
        and type(records) is list
    ):
        raise TypeError("real_world_type, documents, schemas or ods malformed")
    anchors: list[list[tuple[int, str]]] = [[] for _ in texts]
    documents = [
        Document.stored(text, anchors[doc], f"snapshot {origin}, document {doc}")
        for doc, text in enumerate(texts)
    ]
    sources = []
    for document, text in zip(documents, schemas):
        schema = None
        if text:  # a corpus stored without XSDs never loads their parser
            from ..xmlkit.schema_parser import parse_schema

            schema = parse_schema(text)
        sources.append(Source(document, schema))
    ods = []
    for record in records:
        tuples = [ODTuple(value, name) for value, name in record["tuples"]]
        object_id = record["id"]
        if type(object_id) is not int or not all(
            type(odt.value) is str and type(odt.name) is str for odt in tuples
        ):
            raise TypeError("an OD is an int id and [value, name] string pairs")
        if "doc" in record:
            doc, node, path = record["doc"], record["node"], record["path"]
            # a negative index would pick a document too
            if type(doc) is not int or type(node) is not int or min(doc, node) < 0:
                raise IndexError("doc and node are non-negative ints")
            if type(path) is not str:
                raise TypeError("an OD's path is a string")
            anchors[doc].append((node, path))
            ods.append(
                ObjectDescription.stored(object_id, tuples, documents[doc], node, path)
            )
        else:
            ods.append(ObjectDescription(object_id, tuples))
    seal = payload["seal"]
    if type(seal) is not str or seal != _seal(payload["key"], texts, records):
        raise ValueError("the seal is not that of these trees and paths")
    object_ids = {od.object_id for od in ods}
    if len(object_ids) != len(ods):
        raise ValueError("two ODs share an id")
    state = IndexPartial.from_record(payload.pop("index"), object_ids)
    return real_world_type, sources, ods, state


def _seal(key: str, texts: list[str], od_records: list[dict]) -> str:
    """SHA-256 over the snapshot's key, every tree text and, per OD
    with an element, its id, document, rank and path: what a decode
    checks, so that a tree that does not decode is a miss at load
    rather than an error at first read.  Each entry is framed by its
    length, so bytes moved from one entry to the next change the seal.
    """
    digest = hashlib.sha256()
    entries = [key, *texts]
    entries += [
        f"{record['id']} {record['doc']} {record['node']} {record['path']}"
        for record in od_records
        if "doc" in record
    ]
    for entry in entries:
        data = entry.encode("utf-8", "surrogatepass")
        digest.update(b"%d:" % len(data))
        digest.update(data)
    return digest.hexdigest()


def _gzipped_json(payload: dict) -> bytes:
    """``payload`` as compact JSON in one gzip member, its ``index``
    section's kinds encoded one at a time.

    The C encoder holds every small string it writes until its call
    returns, and the section is mostly small ints; encoding the section
    in the same call as the trees would hold both at once (+1.3 MiB of
    peak at n = 200).  So the payload is encoded with an empty ``kinds``
    list — its text ends ``[]}}``, the ``index`` section being the last
    key — and each kind's text is fed to the same compressor in its
    place: the bytes are those of one ``json.dumps``.
    """
    index = payload["index"]
    kinds = index["kinds"]
    # wbits 31: gzip framing; level 4: at n = 1200 the 1.54 MB of text
    # deflate in 17 ms to 314 KB, where level 6 takes 45 ms for 280 KB
    # and level 3 as long as 4 for 324 KB; inflating takes 4 ms at each
    compressor = zlib.compressobj(4, zlib.DEFLATED, 31)
    head = json.dumps(  # the text is freed before the compressor runs
        {**payload, "index": {**index, "kinds": []}},
        separators=(",", ":"),
        default=_encode,
    ).encode()
    parts = [compressor.compress(memoryview(head)[: -len(b"]}}")])]
    del head
    for position, kind in enumerate(kinds):
        if position:
            parts.append(compressor.compress(b","))
        text = json.dumps(kind, separators=(",", ":"), default=_encode).encode()
        parts.append(compressor.compress(text))
    parts += [compressor.compress(b"]}}"), compressor.flush()]
    return b"".join(parts)


def _encode(value: object) -> list:
    """The writer's ``default=`` hook: a set (an occurrence row of the
    index section) as its sorted ids, built as the encoder reaches it,
    so no copy of the rows is held."""
    if type(value) is not set:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return sorted(value)


def _portable_spec_dict(spec) -> Optional[dict]:
    """The spec as a manifest-storable dict with absolute input paths.

    Absolute paths make the recorded spec usable from any working
    directory (the daemon's warm-by-digest path); specs without a
    ``to_dict`` (duck-typed test doubles) record nothing.
    """
    to_dict = getattr(spec, "to_dict", None)
    if to_dict is None:
        return None
    data = to_dict()
    data["documents"] = [os.path.abspath(p) for p in data["documents"]]
    data["schemas"] = [os.path.abspath(p) for p in data["schemas"]]
    data["mapping"] = os.path.abspath(data["mapping"])
    return data


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, just not ours
        return True
    except OSError:  # not a probeable pid at all
        return False
    return True


def _file_digest(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
