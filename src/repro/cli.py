"""Command-line interface.

    python -m repro.cli dedup DOCUMENT... --mapping MAPPING.xml --type T
    python -m repro.cli dedup --spec run.json [--store DIR]
    python -m repro.cli match --spec run.json --object-id N
    python -m repro.cli index build --spec run.json --store DIR
    python -m repro.cli index list --store DIR
    python -m repro.cli serve --store DIR [--port N]
    python -m repro.cli lint [PATH...] [--format text|json]
    python -m repro.cli suggest DOCUMENT [--schema SCHEMA.xsd]
    python -m repro.cli example [--write DIR]

``dedup`` runs a detection session over one or more XML documents and
writes the Fig. 3 dupcluster document; ``match`` looks up the duplicate
partners of a single object against the session's standing index;
``index build`` runs corpus construction once and saves a versioned,
content-addressed snapshot that later ``dedup``/``match`` invocations
warm-start from via ``--store`` (``index list`` catalogs a store);
``serve`` runs the detection-as-a-service HTTP daemon over a store
(see :mod:`repro.serve`);
``lint`` runs the invariant checker (:mod:`repro.analysis`) over
python sources — the concurrency/determinism contracts of ROADMAP
"Static analysis & invariants" as a gating static pass (exit 1 on any
finding);
``suggest`` ranks candidate element types of a document's (inferred or
given) schema; ``example`` replays the paper's running example (or,
with ``--write``, emits it as files plus a ready ``run.json`` spec).

``--spec`` loads a serialized :class:`repro.api.RunSpec`; explicit
flags override the spec's fields.  ``--workers N`` is the one execution
setting: it classifies pairs across N processes.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# The parser names every registry entry, so the registries load with it;
# what a sub-command runs is imported by that sub-command.
from .api.registries import (
    SEMANTICS,
    condition_from_spec,
    heuristic_from_spec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api.spec import RunSpec
    from .ingest.store import IndexStore


def _parse_heuristic(spec: str):
    """Registry-backed heuristic parsing with argparse-friendly errors."""
    try:
        return heuristic_from_spec(spec)
    except (ValueError, LookupError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_condition(spec: Optional[str]):
    try:
        return condition_from_spec(spec)
    except (ValueError, LookupError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bounded_int(minimum: int, what: str):
    """argparse type: an integer >= ``minimum``, with a named error."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {minimum}, got {raw!r}"
            )
        return value

    return parse


def _unit_interval(raw: str) -> float:
    """argparse type: a threshold, a number in [0, 1]."""
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {raw!r}")
    return value


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``dedup`` and ``match`` (one run's inputs)."""
    parser.add_argument("documents", nargs="*", help="XML document file(s)")
    parser.add_argument("--spec", help="RunSpec JSON file; flags override it")
    parser.add_argument("--mapping", help="mapping M file (XML)")
    parser.add_argument("--type", dest="real_world_type",
                        help="real-world type to deduplicate")
    parser.add_argument("--schema", action="append", default=[],
                        help="XSD file, paired with the documents "
                             "positionally: the i-th --schema belongs to "
                             "the i-th document, remaining documents get "
                             "inferred schemas; more --schema flags than "
                             "documents is an error")
    parser.add_argument("--heuristic", default=None,
                        help="kclosest:N | rdistant:N | ancestors:N, "
                             "join with + (default kclosest:6)")
    parser.add_argument("--conditions", default=None,
                        help="comma list of cm,sdt,me,se (ANDed)")
    parser.add_argument("--semantics", default=None,
                        choices=SEMANTICS.names(),
                        help="similar-pair semantics of the measure")
    parser.add_argument("--theta-tuple", type=_unit_interval, default=None)
    parser.add_argument("--theta-cand", type=_unit_interval, default=None)
    parser.add_argument("--no-filter", action="store_true",
                        help="disable the object filter")
    parser.add_argument("--workers", type=_bounded_int(0, "workers"),
                        default=None,
                        help="worker processes for pair classification "
                             "(1 = serial, 0 = all cores)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="index snapshot store: load a warm "
                             "content-addressed snapshot of this run's "
                             "corpus if one exists, else build and "
                             "save one (see the 'index' subcommand)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DogmatiX: duplicate detection in XML (SIGMOD 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dedup = commands.add_parser("dedup", help="detect duplicates in XML documents")
    _add_run_arguments(dedup)
    dedup.add_argument("--output", help="write dupclusters XML here (default stdout)")
    dedup.add_argument("--explain", action="store_true",
                       help="print a similarity breakdown per duplicate pair")

    match = commands.add_parser(
        "match", help="find the duplicate partners of one object"
    )
    _add_run_arguments(match)
    match.add_argument("--object-id", type=_bounded_int(0, "object id"),
                       default=None,
                       help="candidate-set id of the object to match")
    match.add_argument("--path",
                       help="absolute positional XPath of the object "
                            "(e.g. /moviedoc/movie[2])")
    match.add_argument("--top", type=_bounded_int(1, "top"), default=None,
                       help="report at most this many partners")

    suggest = commands.add_parser(
        "suggest", help="rank candidate element types of a document"
    )
    suggest.add_argument("document")
    suggest.add_argument("--schema", help="XSD file (else inferred)")
    suggest.add_argument("--limit", type=int, default=5)

    index = commands.add_parser(
        "index",
        help="build, persist, and inspect index snapshots",
        description="Index snapshot management: 'index build' runs "
                    "corpus construction (steps 1-3 + index) for a run "
                    "spec and saves a versioned, content-addressed "
                    "snapshot; 'index list' catalogs a store. "
                    "'dedup'/'match' warm-start from the same store "
                    "via their --store flag.",
    )
    index_actions = index.add_subparsers(dest="index_action", required=True)
    index_build = index_actions.add_parser(
        "build", help="build a session and save its snapshot"
    )
    _add_run_arguments(index_build)
    index_build.add_argument("--force", action="store_true",
                             help="rebuild and overwrite even if a "
                                  "snapshot for this corpus exists")
    index_list = index_actions.add_parser(
        "list", help="list the snapshots of a store"
    )
    index_list.add_argument("--store", metavar="DIR", required=True,
                            help="index snapshot store directory")

    serve = commands.add_parser(
        "serve",
        help="run the detection-as-a-service HTTP daemon",
        description="Long-running daemon over an index snapshot store: "
                    "POST /corpora opens (warm-loads or builds) a "
                    "corpus and returns its content digest; "
                    "GET/POST /corpora/<digest>/match answers "
                    "single-object lookups concurrently against the "
                    "warm session; detect/extend run behind the "
                    "session's writer lock.  See README 'Serving'.",
    )
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="index snapshot store the daemon serves "
                            "from (and saves cold builds into)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_bounded_int(0, "port"), default=8765,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--max-sessions",
                       type=_bounded_int(1, "max sessions"), default=4,
                       help="resident warm sessions (LRU; evicted "
                            "corpora warm-load again on demand)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    lint = commands.add_parser(
        "lint",
        help="run the invariant checker over python sources",
        description="Static analysis of the codebase's concurrency and "
                    "determinism contracts (repro.analysis): live "
                    "containers escaping shared classes, per-process "
                    "hash(), frozen-index discipline, unlocked "
                    "read-modify-writes, nondeterministic set ordering "
                    "in parity modules, unpicklable pool payloads. "
                    "Exit 0 when clean, 1 on any finding (unused "
                    "suppression pragmas are findings too).",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to check (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="stdout format (text report or the versioned "
                           "JSON document)")
    lint.add_argument("--json-output", metavar="FILE", default=None,
                      help="additionally write the JSON report here "
                           "(CI artifact alongside the text log)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="list pragma-suppressed findings in the text "
                           "report")
    lint.add_argument("--rules", action="store_true", dest="list_rules",
                      help="list the registered rules and exit")

    example = commands.add_parser(
        "example", help="run the paper's running example"
    )
    example.add_argument("--write", metavar="DIR",
                         help="instead of running, write the example "
                              "document, schema, mapping, and a ready "
                              "run.json spec into DIR")
    return parser


def _spec_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> RunSpec:
    """Resolve ``--spec`` plus overriding flags into one RunSpec."""
    from dataclasses import replace

    from .api.spec import RunSpec

    if args.spec:
        if args.documents or args.mapping or args.real_world_type or args.schema:
            parser.error(
                "--spec already names documents, schemas, mapping, and "
                "type; do not combine it with positional documents, "
                "--schema, --mapping, or --type"
            )
        try:
            spec = RunSpec.load(args.spec)
        except (OSError, ValueError, LookupError) as exc:
            parser.error(f"cannot load spec {args.spec!r}: {exc}")
    else:
        if not args.documents:
            parser.error("documents are required (or use --spec)")
        if not args.mapping or not args.real_world_type:
            parser.error("--mapping and --type are required (or use --spec)")
        if len(args.schema) > len(args.documents):
            parser.error(
                f"got {len(args.schema)} --schema files for "
                f"{len(args.documents)} documents; --schema flags pair "
                "with documents positionally"
            )
        spec = RunSpec(
            documents=list(args.documents),
            mapping=args.mapping,
            real_world_type=args.real_world_type,
            schemas=list(args.schema),
        )
    flags = {
        "heuristic": args.heuristic,
        "conditions": args.conditions,
        "similar_semantics": args.semantics,
        "theta_tuple": args.theta_tuple,
        "theta_cand": args.theta_cand,
        "use_object_filter": False if args.no_filter else None,
        "workers": args.workers,
    }
    overrides = {name: value for name, value in flags.items() if value is not None}
    if args.workers is not None:
        overrides["backend"] = None  # re-derive from the worker count
    try:  # the spec checks the merged fields, e.g. a flag against its band
        return replace(spec, **overrides)
    except (ValueError, LookupError) as exc:
        parser.error(str(exc))


def _session_for_spec(spec: RunSpec, store_dir: Optional[str]):
    """Build a session — through the snapshot store when one is given.

    With ``--store``: load the warm snapshot whose content key matches
    the spec's corpus, or build cold and save one for next time (also
    over a damaged or other-format snapshot, with a note on stderr).
    """
    if store_dir is None:
        return spec.build_session()
    from .ingest.store import IndexStore

    store = IndexStore(store_dir)
    digest = store.key_for(spec)  # one corpus hash, reused throughout
    session = _load_or_note(store, spec, digest)
    if session is not None:
        print(
            f"warm start: loaded snapshot {digest[:12]} from {store_dir}",
            file=sys.stderr,
        )
        return session
    session = spec.build_session()
    store.save(spec, session, digest=digest)
    print(f"saved index snapshot {digest[:12]} to {store_dir}", file=sys.stderr)
    return session


def _load_or_note(store: IndexStore, spec: RunSpec, digest: str):
    """The warm session, or ``None`` — with a note on stderr when a file
    under the key is there and could not be used (the caller rebuilds
    over it)."""
    session = store.load(spec, digest=digest)
    if session is None and store.holds(digest):
        print(f"snapshot {digest[:12]} unreadable, rebuilding", file=sys.stderr)
    return session


def _command_dedup(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _spec_from_args(args, parser)
    session = _session_for_spec(spec, args.store)
    result = session.detect()
    print(result.summary(), file=sys.stderr)

    if args.explain:
        for pair in result.duplicate_pairs:
            print(
                f"# {result.object_path(pair.left)} ~ "
                f"{result.object_path(pair.right)} "
                f"(sim={pair.similarity:.3f})",
                file=sys.stderr,
            )
            explanation = session.explain(pair.left, pair.right)
            for left, right in explanation.similar_pairs:
                print(f"#   similar: {left} ~ {right}", file=sys.stderr)
            for left, right in explanation.contradictory_pairs:
                print(f"#   contra:  {left} vs {right}", file=sys.stderr)

    output = result.to_xml()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        print(output)
    return 0


def _command_match(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if (args.object_id is None) == (args.path is None):
        parser.error("match needs exactly one of --object-id or --path")
    spec = _spec_from_args(args, parser)
    session = _session_for_spec(spec, args.store)

    if args.object_id is not None:
        if args.object_id >= len(session.ods):
            parser.error(
                f"--object-id {args.object_id} out of range; the session "
                f"has {len(session.ods)} candidates"
            )
        target: object = args.object_id
    else:
        by_path = {
            session.object_path(od.object_id): od.object_id
            for od in session.ods
        }
        if args.path not in by_path:
            parser.error(f"no candidate at path {args.path!r}")
        target = by_path[args.path]

    matches = session.match(target)
    if args.top is not None:
        matches = matches[: args.top]
    print(
        f"{session.object_path(target)}: {len(matches)} duplicate partner(s)",
        file=sys.stderr,
    )
    for found in matches:
        print(f"{found.path}\t{found.similarity:.4f}")
    return 0


def _command_index(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .ingest.store import IndexStore

    if args.index_action == "list":
        store = IndexStore(args.store)
        snapshots = store.list()
        if not snapshots:
            print("store is empty", file=sys.stderr)
            return 0
        for info in snapshots:
            print(
                f"{info.digest[:12]}  {info.real_world_type:<12} "
                f"{info.objects:>7} objects  {info.sources:>3} source(s)"
            )
        return 0

    # index build
    if not args.store:
        parser.error("index build requires --store DIR")
    spec = _spec_from_args(args, parser)
    store = IndexStore(args.store)
    digest = store.key_for(spec)  # one corpus hash, reused throughout
    # a file under the key proves nothing (nor does its manifest: it cannot
    # see a truncated body beside it) — a snapshot covers the corpus if it loads
    if not args.force and _load_or_note(store, spec, digest) is not None:
        print(
            f"snapshot {digest[:12]} already covers this corpus "
            "(use --force to rebuild)",
            file=sys.stderr,
        )
        print(digest)
        return 0
    session = spec.build_session()
    store.save(spec, session, digest=digest)
    print(
        f"built {len(session.ods)} object descriptions; "
        f"snapshot saved to {args.store}",
        file=sys.stderr,
    )
    print(digest)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import serve

    return serve(
        args.store,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        quiet=args.quiet,
    )


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis.base import all_rules
    from .analysis.checker import lint_paths
    from .analysis.reporters import render_json, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<32} {rule.summary}")
        return 0
    result = lint_paths(args.paths)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            handle.write(render_json(result))
            handle.write("\n")
    return 0 if result.clean else 1


def _command_suggest(args: argparse.Namespace) -> int:
    from .core.candidates_auto import suggest_candidates
    from .xmlkit.parser import parse_file

    document = parse_file(args.document)
    if args.schema:
        from .xmlkit.schema_parser import parse_schema_file

        schema = parse_schema_file(args.schema)
    else:
        from .xmlkit.schema_infer import infer_schema

        schema = infer_schema(document)
    suggestions = suggest_candidates(schema, [document], limit=args.limit)
    if not suggestions:
        print("no plausible candidate element types found", file=sys.stderr)
        return 1
    for suggestion in suggestions:
        flags = "repeatable" if suggestion.repeatable else "singleton"
        print(
            f"{suggestion.xpath:<40} score={suggestion.score:6.2f} "
            f"{flags}, {suggestion.simple_children} describing elements"
        )
    return 0


def _example_spec() -> RunSpec:
    """The running example's configuration as a (relative-path) spec."""
    from .api.spec import RunSpec

    return RunSpec(
        documents=["movies.xml"],
        mapping="mapping.xml",
        real_world_type="MOVIE",
        schemas=["movies.xsd"],
        heuristic="rdistant:2",
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )


def _command_example(args: argparse.Namespace) -> int:
    from .datagen.paper_example import (
        PAPER_EXAMPLE_XML,
        PAPER_EXAMPLE_XSD,
        paper_example_document,
        paper_example_mapping,
        paper_example_schema,
    )

    if args.write:
        import os

        os.makedirs(args.write, exist_ok=True)

        def write(name: str, text: str) -> str:
            path = os.path.join(args.write, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return path

        write("movies.xml", PAPER_EXAMPLE_XML)
        write("movies.xsd", PAPER_EXAMPLE_XSD)
        write("mapping.xml", paper_example_mapping().to_xml())
        spec_path = write("run.json", _example_spec().to_json())
        print(f"wrote the running example to {args.write}", file=sys.stderr)
        print(spec_path)
        return 0

    from .api.session import DetectionSession
    from .core.config import DogmatixConfig
    from .core.heuristics import RDistantDescendants
    from .core.source import Source

    config = DogmatixConfig(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )
    session = DetectionSession(
        Source(paper_example_document(), paper_example_schema()),
        paper_example_mapping(),
        "MOVIE",
        config,
    )
    result = session.detect()
    print(result.summary(), file=sys.stderr)
    print(result.to_xml())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dedup":
            return _command_dedup(args, parser)
        if args.command == "match":
            return _command_match(args, parser)
        if args.command == "index":
            return _command_index(args, parser)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "lint":
            return _command_lint(args)
        if args.command == "suggest":
            return _command_suggest(args)
        return _command_example(args)
    except Exception as exc:
        # Malformed input XML: one line naming the file, no traceback.
        # Imported here, so that starting the CLI loads no xmlkit.
        from .xmlkit.tree import XMLError

        if not isinstance(exc, XMLError):
            raise
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
