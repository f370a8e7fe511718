"""Parallel corpus construction with mergeable partial indexes.

The serial reference is :meth:`repro.api.Corpus.generate_ods` followed
by a :class:`~repro.core.index.CorpusIndex` build: for every candidate
XPath (sorted) and source (insertion order), infer/resolve the schema,
select a description, generate one OD per candidate element, then scan
all ODs into the index.  At corpus scale the expensive parts are schema
inference, the per-candidate heuristic walks of OD generation, and the
q-gram counting of index construction — all embarrassingly parallel
once the work is partitioned.

Documents are parsed in the parent before they reach
:class:`ParallelIngestor`: shipping parsed trees back from parse
workers costs more than parsing them with expat in the parent.  The
parent then enumerates candidate elements per ``(xpath, source)`` unit
(a cheap tree walk that also fixes the *serial* object-id order and
keeps the parent's elements for the results), and fans out contiguous
candidate chunks.  Each worker resolves the source schema (inferred
once per worker, memoized), selects the description, generates its
chunk's ODs, and builds an :class:`~repro.core.index.IndexPartial`
over them.  The parent re-attaches its own elements to the returned OD
tuples and merges the partials associatively into the final index.

The fan-out runs on the worker pool (:mod:`repro.engine.pool`).  Each
worker receives the whole corpus once via the pool initializer, so any
chunk of any source can be scheduled on any worker.  The payload
therefore scales with ``corpus × workers`` in memory — per-worker
source subsetting (and with it cross-machine distribution) is the
natural next step on top of the same partial-merge algebra; see
ROADMAP.md.

Object ids are assigned before fan-out, so worker output needs no
renumbering and the merged index is observably identical to the serial
build (same occurrence sets, soft-IDF statistics, similar-value groups,
blocking view) — pinned by ``tests/test_ingest_parallel.py`` and the
merge-associativity fuzz suite.  With one worker, an empty candidate
set, an unpicklable payload (e.g. a closure-based condition), or a pool
worker that dies or fails to start, the build falls back to the serial
reference path and records why in :attr:`ParallelIngestor.last_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .._lazy import resolve
from ..core.config import DogmatixConfig
from ..core.index import CorpusIndex, IndexPartial
from ..core.selection import DescriptionSelector
from ..core.source import Source
from ..framework.description import DescriptionDefinition
from ..framework.mapping import TypeMapping
from ..framework.od import ObjectDescription
from ..xmlkit.schema import Schema
from ..xmlkit.schema_infer import infer_schema
from ..xmlkit.tree import Element
from ..xmlkit.xpath import compile_path

#: Candidate chunks per worker: oversubscription lets free workers pull
#: the next chunk, balancing sources and xpaths with uneven candidate
#: counts.  Results are invariant under the chunking.
CHUNK_FACTOR = 4

_POOL = "repro.engine.pool"


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`ParallelIngestor.build` actually did."""

    backend: str  #: ``"parallel"`` or ``"serial"`` (the fallback).
    workers: int
    sources: int
    candidates: int
    #: Why the build fell back to the serial path, if it did.
    reason: Optional[str] = None


# ----------------------------------------------------------------------
# Worker-process state (documents + selector shipped once per worker)
# ----------------------------------------------------------------------
_INGEST_STATE: dict[str, object] = {}


def _init_ingest_worker(
    sources, mapping, selector, include_empty, q
) -> None:
    """Install the corpus and the OD-shaping config as this worker's state."""
    _INGEST_STATE["sources"] = sources
    _INGEST_STATE["mapping"] = mapping
    _INGEST_STATE["selector"] = selector
    _INGEST_STATE["include_empty"] = include_empty
    _INGEST_STATE["q"] = q
    _INGEST_STATE["schemas"] = {}
    _INGEST_STATE["descriptions"] = {}
    _INGEST_STATE["candidates"] = {}


def _worker_schema(source_index: int) -> Schema:
    """The source's schema — given, or inferred once per worker."""
    schemas: dict[int, Schema] = _INGEST_STATE["schemas"]  # type: ignore[assignment]
    schema = schemas.get(source_index)
    if schema is None:
        source: Source = _INGEST_STATE["sources"][source_index]  # type: ignore[index]
        schema = source.schema or infer_schema(source.document)
        schemas[source_index] = schema
    return schema


def _worker_candidates(source_index: int, xpath: str) -> list[Element]:
    """Candidate elements of one ``(source, xpath)`` unit (memoized)."""
    memo: dict[tuple[int, str], list[Element]] = _INGEST_STATE["candidates"]  # type: ignore[assignment]
    found = memo.get((source_index, xpath))
    if found is None:
        source: Source = _INGEST_STATE["sources"][source_index]  # type: ignore[index]
        found = compile_path(xpath).select(source.document)
        memo[(source_index, xpath)] = found
    return found


def _worker_description(source_index: int, xpath: str) -> DescriptionDefinition:
    """The unit's description definition σ' (memoized per unit)."""
    memo: dict[tuple[int, str], DescriptionDefinition] = _INGEST_STATE["descriptions"]  # type: ignore[assignment]
    description = memo.get((source_index, xpath))
    if description is None:
        declaration = _worker_schema(source_index).get(xpath)
        if declaration is None:  # the parent only tasks declared units
            raise RuntimeError(
                f"ingest worker found no schema declaration for {xpath!r} "
                f"in source {source_index} — parent/worker schema drift"
            )
        selector: DescriptionSelector = _INGEST_STATE["selector"]  # type: ignore[assignment]
        description = selector.description_definition(
            declaration, include_empty=bool(_INGEST_STATE["include_empty"])
        )
        memo[(source_index, xpath)] = description
    return description


#: One fan-out task: (source index, xpath, start, stop, first object id).
IngestTask = tuple[int, str, int, int, int]


def _ingest_chunk(
    task: IngestTask,
) -> tuple[list[tuple[int, tuple]], IndexPartial]:
    """Steps 2+3 plus partial indexing for one candidate chunk.

    Returns the generated ODs as ``(object_id, tuples)`` pairs —
    elements stay in the worker; the parent re-attaches its own — and
    the chunk's :class:`IndexPartial`.
    """
    source_index, xpath, start, stop, first_id = task
    description = _worker_description(source_index, xpath)
    elements = _worker_candidates(source_index, xpath)[start:stop]
    ods = [
        description.generate_od(first_id + offset, element)
        for offset, element in enumerate(elements)
    ]
    partial = IndexPartial.from_ods(
        ods,
        _INGEST_STATE["mapping"],  # type: ignore[arg-type]
        q=int(_INGEST_STATE["q"]),  # type: ignore[arg-type]
    )
    return [(od.object_id, od.tuples) for od in ods], partial


class ParallelIngestor:
    """Builds ``(ods, index)`` for a corpus, in parallel when possible.

    Parameters
    ----------
    workers:
        Pool processes for description/index construction; ``1`` is
        the serial reference path.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Populated by :meth:`build`.
        self.last_report: Optional[IngestReport] = None

    def build(
        self,
        corpus,  # repro.api.Corpus (kept untyped to avoid an import cycle)
        mapping: TypeMapping,
        real_world_type: str,
        config: Optional[DogmatixConfig] = None,
    ) -> tuple[list[ObjectDescription], CorpusIndex]:
        """Steps 1-3 plus index construction over ``corpus``.

        Returns ODs in the exact serial order/ids of
        :meth:`repro.api.Corpus.generate_ods` (elements attached from
        the parent's own trees) and a :class:`CorpusIndex` merged from
        the workers' partials.
        """
        config = config or DogmatixConfig()
        if self.workers <= 1:  # before enumerating anything the serial
            # path would only re-enumerate via generate_ods
            return self._serial(corpus, mapping, real_world_type, config)
        sources = list(corpus)
        units: list[tuple[int, str, list[Element], int]] = []
        next_id = 0
        for xpath in sorted(mapping.xpaths_of(real_world_type)):
            compiled = compile_path(xpath)
            for source_index, source in enumerate(sources):
                if source.schema is not None and source.schema.get(xpath) is None:
                    continue  # declared schemas gate candidates (serial rule)
                elements = compiled.select(source.document)
                if not elements:
                    continue
                if source.schema is None and any(
                    element.generic_path() != xpath for element in elements
                ):
                    # Pattern xpaths ('//', '*', ...) select elements
                    # whose concrete generic path differs from the
                    # xpath string; an inferred schema keys exact paths
                    # only, so Schema.get(xpath) is None and the serial
                    # path yields zero candidates for this unit — gate
                    # identically instead of letting the worker's
                    # declaration lookup fail.
                    continue
                units.append((source_index, xpath, elements, next_id))
                next_id += len(elements)
        total = next_id

        if total == 0:
            return self._serial(corpus, mapping, real_world_type, config,
                                reason="no candidates")
        q = IndexPartial().q
        payload = (tuple(sources), mapping, config.selector,
                   config.include_empty, q)
        if not resolve(f"{_POOL}:picklable")(payload):
            return self._serial(corpus, mapping, real_world_type, config,
                                reason="unpicklable ingest payload")

        chunk = max(1, -(-total // (self.workers * CHUNK_FACTOR)))
        tasks: list[IngestTask] = []
        chunks: list[list[Element]] = []  # the parent's elements per task
        for source_index, xpath, elements, first_id in units:
            for start in range(0, len(elements), chunk):
                stop = min(start + chunk, len(elements))
                tasks.append((source_index, xpath, start, stop, first_id + start))
                chunks.append(elements[start:stop])
        ods: list[ObjectDescription] = []
        merged = IndexPartial(q=q)
        try:
            open_pool = resolve(f"{_POOL}:open_pool")
            with open_pool(
                self.workers, initializer=_init_ingest_worker, initargs=payload
            ) as pool:
                # results arrive in task (= serial id) order
                for elements, (chunk_ods, partial) in zip(
                    chunks, pool.map(_ingest_chunk, tasks)
                ):
                    if len(chunk_ods) != len(elements):  # pragma: no cover
                        raise RuntimeError(
                            f"ingest worker returned {len(chunk_ods)} ODs for "
                            f"{len(elements)} candidates — parent/worker "
                            "candidate drift"
                        )
                    for (object_id, tuples), element in zip(chunk_ods, elements):
                        ods.append(ObjectDescription(object_id, tuples, element))
                    merged.merge(partial)
        except resolve(f"{_POOL}:PoolBroken") as failure:
            return self._serial(corpus, mapping, real_world_type, config,
                                reason=str(failure))

        index = CorpusIndex.from_partial(merged, mapping, config.theta_tuple)
        self.last_report = IngestReport(
            "parallel", self.workers, len(sources), total
        )
        return ods, index

    def _serial(
        self,
        corpus,
        mapping: TypeMapping,
        real_world_type: str,
        config: DogmatixConfig,
        reason: Optional[str] = None,
    ) -> tuple[list[ObjectDescription], CorpusIndex]:
        """The serial reference path (also the fallback)."""
        ods = corpus.generate_ods(mapping, real_world_type, config)
        index = CorpusIndex(ods, mapping, config.theta_tuple)
        self.last_report = IngestReport(
            "serial", self.workers, len(corpus), len(ods), reason
        )
        return ods, index
