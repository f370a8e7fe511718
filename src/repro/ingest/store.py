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

**Format 3** holds a session in the shape the loader needs.  A document
is the tree's structural record (:func:`repro.xmlkit.document_record`),
which ``json.loads`` builds in C and one pass turns into elements: a
warm open tokenizes no XML, and ``content`` survives item for item.  An
OD is ``id``, ``tuples`` and — when it has an element — ``doc`` +
``node``, the source index and the element's document-order rank.

No index is stored: a warm load rebuilds it from the stored ODs, a
deterministic linear scan that reproduces the fresh build bit for bit,
so loaded sessions answer ``detect()`` / ``match()`` identically to a
cold build (``tests/test_ingest_store.py``).  An ``index`` section that
an older writer added is not read.
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

from ..core.source import Source
from ..framework.od import ObjectDescription, ODTuple
from ..xmlkit.tree import (
    Document,
    Element,
    XMLError,
    document_from_record,
    document_record,
    element_record,
)

#: Snapshot format version.  Bump on any layout change; loaders treat
#: other versions as a cache miss and rebuild.  2: an optional ``index``
#: section (no longer written or read).  3: documents as structural
#: records, ODs point at nodes by rank.
FORMAT_VERSION = 3

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
            od_records.append(record)
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
            "documents": [document_record(document) for document in documents],
            "schemas": schema_texts,
            "ods": od_records,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        self.sweep_scratch()
        final = self._snapshot_path(digest)
        scratch = final.with_suffix(final.suffix + f".tmp{os.getpid()}")
        data = json.dumps(
            payload, separators=(",", ":"), default=element_record
        ).encode("utf-8")  # the text is freed before the compressor runs
        # level 6: a third of level 9's time for 4 % more bytes
        scratch.write_bytes(gzip.compress(data, compresslevel=6))
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
        written by another :data:`FORMAT_VERSION` (the version policy),
        one whose embedded key is not that digest (a file copied or
        renamed under another key), or one that cannot be decoded —
        truncated or bit-flipped gzip, not JSON, a section missing, a tree
        record of the wrong shape, an OD pointing at a node that is not
        there.  In every case the
        caller rebuilds and :meth:`save` overwrites the file.

        The returned session carries the *live* spec's configuration:
        only the stored ODs, documents, and schemas are reused, and the
        index is rebuilt deterministically from the ODs, so the session
        is bit-identical to one built cold from the same spec.
        """
        digest = digest or self.key_for(spec)
        path = self._snapshot_path(digest)
        try:  # one read, one gunzip, one JSON decode
            payload = json.loads(gzip.decompress(path.read_bytes()))
            if payload["format"] != FORMAT_VERSION or payload["key"] != digest:
                return None
            real_world_type, sources, ods = _restore(payload)
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


def _restore(payload: dict) -> tuple[str, list[Source], list[ObjectDescription]]:
    """Real-world type, sources and ODs of a format-3 payload, which
    gives up the sections read (the decoded JSON is gone before the index
    is built).  What is used is validated first — ODs index lists with
    integers read from disk — and anything malformed raises one of
    ``_UNDECODABLE``."""
    real_world_type = payload["real_world_type"]
    records, schemas = payload.pop("documents"), payload.pop("schemas")
    if not (
        type(real_world_type) is str
        and type(records) is list
        and type(schemas) is list
        and len(schemas) == len(records)
        and all(text is None or type(text) is str for text in schemas)
    ):
        raise TypeError("real_world_type, documents or schemas malformed")
    sources, elements = [], []
    for record, text in zip(records, schemas):
        document, order = document_from_record(record)
        schema = None
        if text:  # a corpus stored without XSDs never loads their parser
            from ..xmlkit.schema_parser import parse_schema

            schema = parse_schema(text)
        sources.append(Source(document, schema))
        elements.append(order)
    ods = []
    for record in payload.pop("ods"):
        element = None
        if "doc" in record:
            doc, node = record["doc"], record["node"]
            # a negative index would pick a node too
            if type(doc) is not int or type(node) is not int or min(doc, node) < 0:
                raise IndexError("doc and node are non-negative ints")
            element = elements[doc][node]
        tuples = [ODTuple(value, name) for value, name in record["tuples"]]
        if type(record["id"]) is not int or not all(
            type(odt.value) is str and type(odt.name) is str for odt in tuples
        ):
            raise TypeError("an OD is an int id and [value, name] string pairs")
        ods.append(ObjectDescription(record["id"], tuples, element))
    return real_world_type, sources, ods


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
