"""Per-layer probes for the traced run (child side).

The program has no spans inside it yet, so the traced run calls each
layer through its public functions itself, one :class:`tracer.Tracer`
span per call.  For the batch workloads that means *staging* the
pipeline — parse, OD generation, index build, freeze, object filter,
pair enumeration, pairwise similarity, clustering — and the staged run
must end with the same duplicate pairs as ``session.detect()``.

A probe that cannot import or call what it measures records ``None``
for its metrics and one entry in ``probe_errors``; it never fails the
run, because a later change may delete the function it times.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from statistics import median
from typing import Callable, Optional

from tracer import Tracer


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


@dataclass
class Staged:
    """Steps 1-3 done through public calls: what later probes start from."""

    spec: object
    config: object
    mapping: object
    documents: list
    corpus: object
    ods: list
    index: object

    def build_index(self, ods: list):
        """A fresh frozen index, configured the way the session does it."""
        from repro.core.index import CorpusIndex

        index = CorpusIndex(
            ods,
            self.mapping,
            self.config.theta_tuple,
            strategy=self.config.similarity_strategy,
            encoding=self.config.index_encoding,
        )
        index.freeze()
        return index


class Probes:
    """Shared state of one traced child: inputs, tracer, results."""

    def __init__(self, args: dict) -> None:
        self.args = args
        self.tracer = Tracer(args.get("run", "traced"))
        self.span = self.tracer.span
        self.metrics: dict[str, Optional[float]] = {}
        self.errors: list[dict] = []
        self.rng = random.Random(args.get("seed", 0))
        self._staged: Optional[Staged] = None
        #: session and serial result of the api probe, for the engine probe
        self.session = None
        self.serial_result = None
        #: what the staged pipeline found, for the runner to check
        self.staged_pairs: Optional[list] = None
        self.staged_clusters: Optional[list] = None

    def run(self, name: str, metrics: list[str], probe: Callable[[], None]) -> None:
        """Run one probe; on any failure null its metrics and go on."""
        try:
            with self.span(f"probe.{name}"):
                probe()
        except Exception as exc:  # noqa: BLE001 - a probe must not end the run
            for metric in metrics:
                self.metrics[metric] = None
            self.errors.append(
                {
                    "probe": name,
                    "error": f"{type(exc).__name__}: {exc}",
                    "where": traceback.format_exc(limit=2).splitlines()[-3:],
                }
            )
        else:
            for metric in metrics:
                self.metrics.setdefault(metric, None)

    def load_spec(self):
        from repro.api import RunSpec

        return RunSpec.load(self.args["spec"])

    def stored_session(self):
        """The session of the snapshot the daemon serves."""
        from repro.ingest import IndexStore

        session = IndexStore(self.args["store"]).load(self.load_spec())
        if session is None:
            raise AssertionError("the daemon's snapshot is not in the store")
        return session

    def staged(self) -> Staged:
        """Parse -> ODs -> index -> freeze, spanned; done once per child."""
        if self._staged is not None:
            return self._staged
        from repro.api import Corpus
        from repro.core import Source
        from repro.core.index import CorpusIndex
        from repro.xmlkit import parse_file

        spec = self.load_spec()
        config = spec.to_config()
        mapping = spec.load_mapping()
        xml_bytes = sum(os.path.getsize(path) for path in spec.documents)
        with self.span("xmlkit.parse") as parse:
            documents = [parse_file(path) for path in spec.documents]
        corpus = Corpus([Source(document) for document in documents])
        with self.span("framework.od_generate") as generate:
            ods = corpus.generate_ods(mapping, spec.real_world_type, config)
        with self.span("core.index_build") as build:
            index = CorpusIndex(
                ods,
                mapping,
                config.theta_tuple,
                strategy=config.similarity_strategy,
                encoding=config.index_encoding,
            )
        with self.span("core.index_freeze") as freeze:
            index.freeze()
        self.metrics.update(
            {
                "xmlkit.parse_s": seconds(parse),
                "xmlkit.parse_mb_per_s": xml_bytes / 1e6 / seconds(parse),
                "framework.od_generate_s": seconds(generate),
                "framework.ods": len(ods),
                "framework.tuples_per_od": (
                    sum(len(od.tuples) for od in ods) / len(ods)
                ),
                "core.index_build_s": seconds(build),
                "core.index_freeze_s": seconds(freeze),
                "core.index_terms": index.statistics()["terms"],
            }
        )
        self._staged = Staged(spec, config, mapping, documents, corpus, ods, index)
        return self._staged


# ----------------------------------------------------------------------
# Probe groups
# ----------------------------------------------------------------------
def probe_import(p: Probes) -> None:
    def importing() -> None:
        started = time.perf_counter()
        import repro.cli  # noqa: F401 - the import is what is timed

        p.metrics["cli.import_s"] = time.perf_counter() - started

    p.run("import", ["cli.import_s"], importing)


def probe_ingest_layers(p: Probes) -> None:
    """xmlkit / framework OD generation / core index: the open path."""
    metrics = [
        "xmlkit.parse_s", "xmlkit.parse_mb_per_s", "framework.od_generate_s",
        "framework.ods", "framework.tuples_per_od", "core.index_build_s",
        "core.index_freeze_s", "core.index_terms",
    ]
    p.run("ingest_layers", metrics, p.staged)

    def index_bytes() -> None:
        from repro.compact import deep_sizeof

        p.metrics["core.index_bytes"] = deep_sizeof(p.staged().index)

    p.run("index_bytes", ["core.index_bytes"], index_bytes)

    def serialize() -> None:
        from repro.xmlkit import serialize as to_text

        with p.span("xmlkit.serialize") as span:
            for document in p.staged().documents:
                to_text(document)
        p.metrics["xmlkit.serialize_s"] = seconds(span)

    p.run("serialize", ["xmlkit.serialize_s"], serialize)


def probe_pipeline(p: Probes) -> None:
    """Steps 4-6 staged through public calls on the staged index."""
    metrics = [
        "core.filter_pass_s", "core.filter_pruned_share",
        "framework.enumerate_s", "framework.pairs_enumerated",
        "framework.pairs_per_object", "core.similarity_s",
        "core.pairs_compared", "core.similarity_pairs_per_s",
        "core.duplicate_share", "framework.cluster_s", "framework.clusters",
    ]

    def pipeline() -> None:
        from repro.core.object_filter import ObjectFilter
        from repro.core.similarity import DogmatixSimilarity
        from repro.framework import (
            ObjectFilterPruning,
            SharedTupleBlocking,
            ThresholdClassifier,
        )
        from repro.framework.classifier import DUPLICATES
        from repro.framework.clustering import duplicate_clusters

        staged = p.staged()
        config, ods, index = staged.config, staged.ods, staged.index
        object_filter = ObjectFilter(index, config.theta_cand)
        with p.span("core.filter_pass") as filtering:
            kept = sum(1 for od in ods if object_filter.keep(od))
        source = ObjectFilterPruning(
            object_filter.keep, inner=SharedTupleBlocking(index.block_keys)
        )
        with p.span("framework.enumerate") as enumerating:
            pairs = list(source.pairs(ods))
        by_id = {od.object_id: od for od in ods}
        classifier = ThresholdClassifier(
            DogmatixSimilarity(index, semantics=config.similar_semantics),
            config.theta_cand,
            possible_threshold=config.possible_threshold,
        )
        duplicates = []
        with p.span("core.similarity") as scoring:
            for left, right in pairs:
                label = classifier.score_and_classify(by_id[left], by_id[right])[1]
                if label == DUPLICATES:
                    duplicates.append((min(left, right), max(left, right)))
        duplicates.sort()
        with p.span("framework.cluster") as clustering:
            clusters = duplicate_clusters(
                duplicates, [od.object_id for od in ods]
            )
        p.metrics.update(
            {
                "core.filter_pass_s": seconds(filtering),
                "core.filter_pruned_share": 1 - kept / len(ods),
                "framework.enumerate_s": seconds(enumerating),
                "framework.pairs_enumerated": len(pairs),
                "framework.pairs_per_object": len(pairs) / len(ods),
                "core.similarity_s": seconds(scoring),
                "core.pairs_compared": len(pairs),
                "core.similarity_pairs_per_s": len(pairs) / seconds(scoring),
                "core.duplicate_share": (
                    len(duplicates) / len(pairs) if pairs else 0.0
                ),
                "framework.cluster_s": seconds(clustering),
                "framework.clusters": len(clusters),
            }
        )
        p.tracer.count("pairs_enumerated", len(pairs))
        p.tracer.count("duplicates", len(duplicates))
        p.staged_pairs = [list(pair) for pair in duplicates]
        p.staged_clusters = [list(cluster) for cluster in clusters]

    p.run("pipeline", metrics, pipeline)


def probe_index_writes(p: Probes) -> None:
    """What ``extend()`` does to the index: thaw, merge 5 ODs, freeze."""
    metrics = ["core.thaw_refreeze_s", "core.merge_partial_s"]

    def writes() -> None:
        from repro.core.index import IndexPartial

        staged = p.staged()
        index = staged.build_index(staged.ods[:-5])
        partial = IndexPartial.from_ods(
            staged.ods[-5:], staged.mapping, q=index.q,
            strategy=index.strategy, encoding=index.encoding,
        )
        with p.span("core.thaw_refreeze") as whole:
            index.thaw()
            with p.span("core.merge_partial") as merge:
                index.merge_partial(partial)
            index.freeze()
        p.metrics["core.thaw_refreeze_s"] = seconds(whole) - seconds(merge)
        p.metrics["core.merge_partial_s"] = seconds(merge)

    p.run("index_writes", metrics, writes)


def probe_search(p: Probes) -> None:
    """Similar-value search through the index and through the default
    value index directly, and the edit distance under both."""

    def similar_values() -> None:
        staged = p.staged()
        fresh = staged.build_index(staged.ods)  # cold memos
        terms = fresh.block_terms()
        with p.span("core.similar_values") as span:
            for key, value in terms:
                fresh.similar_values(key, value)
        p.metrics["core.similar_values_s"] = seconds(span)
        p.metrics["core.similar_values_calls"] = len(terms)

    p.run(
        "similar_values",
        ["core.similar_values_s", "core.similar_values_calls"],
        similar_values,
    )

    def largest_key_values() -> list[str]:
        by_key: dict[str, set[str]] = {}
        for key, value in p.staged().index.block_terms():
            by_key.setdefault(key, set()).add(value)
        key = max(sorted(by_key), key=lambda k: len(by_key[k]))
        return sorted(by_key[key])

    search_metrics = [
        "strings.search_s", "strings.search_probes",
        "strings.search_verifications", "strings.search_results",
        "strings.verify_waste",
    ]

    def search() -> None:
        from repro.strings import make_value_index

        values = largest_key_values()
        config = p.staged().config
        index = make_value_index(config.similarity_strategy)
        for value in values:
            index.add(value)
        results = 0
        with p.span("strings.search") as span:
            for value in values:
                results += len(index.search(value, config.theta_tuple))
        p.metrics.update(
            {
                "strings.search_s": seconds(span),
                "strings.search_probes": index.probes,
                "strings.search_verifications": index.verifications,
                "strings.search_results": results,
                # every searched value is indexed and matches itself
                # without a verification; those self-hits are not wins
                "strings.verify_waste": (
                    1 - (results - len(values)) / index.verifications
                    if index.verifications else 0.0
                ),
            }
        )

    p.run("search", search_metrics, search)

    distance_metrics = [
        "strings.edit_distance_s", "strings.edit_distance_banded_s",
        "strings.edit_distance_per_s",
    ]

    def distances() -> None:
        from repro.strings import edit_distance

        values = largest_key_values()
        theta_tuple = p.staged().config.theta_tuple
        count = p.args.get("edit_pairs", 20000)
        pairs = [
            (p.rng.choice(values), p.rng.choice(values)) for _ in range(count)
        ]
        with p.span("strings.edit_distance") as full:
            for a, b in pairs:
                edit_distance(a, b)
        with p.span("strings.edit_distance_banded") as banded:
            for a, b in pairs:
                edit_distance(
                    a, b, limit=int(theta_tuple * max(len(a), len(b)))
                )
        p.metrics.update(
            {
                "strings.edit_distance_s": seconds(full),
                "strings.edit_distance_banded_s": seconds(banded),
                "strings.edit_distance_per_s": count / seconds(full),
            }
        )

    p.run("edit_distance", distance_metrics, distances)


def probe_api(p: Probes) -> None:
    """The session API over the same files: open, detect, detect again."""
    metrics = ["api.open_s", "api.detect_s", "api.detect_warm_s"]

    def session_calls() -> None:
        spec = p.load_spec()
        with p.span("api.open") as opened:
            session = spec.build_session()
        with p.span("api.detect") as first:
            result = session.detect()
        with p.span("api.detect_warm") as second:
            again = session.detect()
        if not result.identical_to(again):
            raise AssertionError("second detect() differs from the first")
        p.metrics.update(
            {
                "api.open_s": seconds(opened),
                "api.detect_s": seconds(first),
                "api.detect_warm_s": seconds(second),
            }
        )
        p.session, p.serial_result = session, result

    p.run("api", metrics, session_calls)


def probe_engine(p: Probes) -> None:
    """Two shard workers against serial (2 shared cores: no scaling
    claim, the ratio only says what the shard backend costs here)."""
    metrics = ["engine.detect_shard2_s", "engine.shard2_ratio"]

    def sharded() -> None:
        from repro.engine import ExecutionPolicy

        policy = ExecutionPolicy.sharded(2, filter_in_workers=True)
        with p.span("engine.detect_shard2") as span:
            result = p.session.detect(policy=policy)
        if not result.identical_to(p.serial_result):
            raise AssertionError("shard backend result differs from serial")
        p.metrics["engine.detect_shard2_s"] = seconds(span)
        p.metrics["engine.shard2_ratio"] = (
            seconds(span) / p.metrics["api.detect_warm_s"]
        )

    p.run("engine", metrics, sharded)


def probe_ingest(p: Probes) -> None:
    """The store and the parallel builder on the same corpus."""
    metrics = ["ingest.save_s", "ingest.load_s", "ingest.snapshot_bytes"]

    def store() -> None:
        from repro.ingest import IndexStore

        spec = p.load_spec()
        session = p.session or spec.build_session()
        root = p.args["store"]
        target = IndexStore(root)
        with p.span("ingest.save") as saved:
            key = target.save(spec, session)
        with p.span("ingest.load") as loaded:
            warm = target.load(spec)
        if warm is None or len(warm.ods) != len(session.ods):
            raise AssertionError("warm load does not match the saved session")
        p.metrics.update(
            {
                "ingest.save_s": seconds(saved),
                "ingest.load_s": seconds(loaded),
                "ingest.snapshot_bytes": os.path.getsize(
                    os.path.join(root, f"{key}.json.gz")
                ),
            }
        )

    p.run("store", metrics, store)

    def parallel_build() -> None:
        from repro.ingest import ParallelIngestor

        staged = p.staged()
        with p.span("ingest.parallel2_build") as span:
            built, _ = ParallelIngestor(2).build(
                staged.corpus, staged.mapping, staged.spec.real_world_type,
                staged.config,
            )
        if len(built) != len(staged.ods):
            raise AssertionError("parallel build lost objects")
        p.metrics["ingest.parallel2_build_s"] = seconds(span)

    p.run("parallel_build", ["ingest.parallel2_build_s"], parallel_build)


def probe_match(p: Probes) -> None:
    """In-process ``match()`` on the snapshot the daemon serves."""
    metrics = [
        "api.kept_pass_s", "api.match_inproc_p50_ms",
        "api.match_element_inproc_p50_ms",
    ]

    def timed_matches(session, span_name: str, targets: list) -> Optional[float]:
        spans = []
        for target in targets:
            with p.span(span_name) as span:
                session.match(target)
            spans.append(seconds(span))
        return median(spans) * 1000 if spans else None

    def matching() -> None:
        from repro.xmlkit import compile_path, parse_file

        session = p.stored_session()
        ids = p.args["ids"]
        with p.span("api.kept_pass") as first:
            session.match(ids[0])
        candidate = compile_path(
            sorted(session.mapping.xpaths_of(session.real_world_type))[0]
        )
        elements = [
            candidate.select(parse_file(path))[0]
            for path in p.args.get("foreign", [])
        ]
        p.metrics.update(
            {
                "api.kept_pass_s": seconds(first),
                "api.match_inproc_p50_ms": timed_matches(session, "api.match", ids),
                "api.match_element_inproc_p50_ms": timed_matches(
                    session, "api.match_element", elements
                ),
            }
        )

    p.run("match", metrics, matching)


def probe_extend(p: Probes) -> None:
    """In-process ``extend()`` with the batches the daemon was sent."""
    metrics = ["api.extend_first_s", "api.extend_steady_s"]

    def extending() -> None:
        from repro.core import Source
        from repro.xmlkit import parse_file

        session = p.stored_session()
        durations = []
        for path in p.args["extends"]:
            source = Source(parse_file(path))
            with p.span("api.extend") as span:
                session.extend(source)
            durations.append(seconds(span))
        p.metrics["api.extend_first_s"] = durations[0]
        p.metrics["api.extend_steady_s"] = (
            median(durations[1:]) if len(durations) > 1 else None
        )

    p.run("extend", metrics, extending)


GROUPS: dict[str, Callable[[Probes], None]] = {
    "import": probe_import,
    "ingest_layers": probe_ingest_layers,
    "pipeline": probe_pipeline,
    "index_writes": probe_index_writes,
    "search": probe_search,
    "api": probe_api,
    "engine": probe_engine,
    "ingest": probe_ingest,
    "match": probe_match,
    "extend": probe_extend,
}


def mode_probe(args: dict) -> dict:
    """Run the named probe groups in order, in this one child."""
    probes = Probes(args)
    for group in args["groups"]:
        GROUPS[group](probes)
    return {
        "metrics": probes.metrics,
        "probe_errors": probes.errors,
        "trace": probes.tracer.to_dict(),
        "staged_pairs": probes.staged_pairs,
        "staged_clusters": probes.staged_clusters,
    }
