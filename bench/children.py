"""The processes that run the program.

The runner never imports ``repro``: every call into the program happens
in a child started as ``python children.py MODE '<json args>'`` with
``PYTHONHASHSEED=0`` and ``src/`` on ``PYTHONPATH``, and is timed from
outside.  A child prints one JSON object as its last line of output.

The end-to-end modes use the public session/store API exactly as the
CLI does and take no strategy, encoding, backend or ``REPRO_*``
overrides: they measure the program as shipped.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from harness import digest

_STARTED = time.perf_counter()


def matches_of(session, target) -> list:
    """``session.match`` as the JSON the daemon would answer with."""
    return [
        {"object_id": m.object_id, "similarity": m.similarity, "path": m.path}
        for m in session.match(target)
    ]


def result_record(session, result) -> dict:
    """What the batch checks compare: pair set, clusters, quality."""
    from repro.eval import gold_pairs, pair_metrics

    pairs = sorted(result.duplicate_id_pairs())
    quality = pair_metrics(pairs, gold_pairs(session.ods))
    return {
        "objects": len(session.ods),
        "pairs": [list(pair) for pair in pairs],
        "clusters": [list(cluster) for cluster in result.clusters],
        "quality_f1": quality.f1,
    }


# ----------------------------------------------------------------------
# End-to-end paths
# ----------------------------------------------------------------------
def mode_gen(args: dict) -> dict:
    from inputs import generate

    return {"corpora": [generate(**job) for job in args["corpora"]]}


def mode_batch(args: dict) -> dict:
    """Paper steps 1-6 from files, cold: what ``dedup --spec`` runs."""
    from repro.api import RunSpec

    imported = time.perf_counter()
    session = RunSpec.load(args["spec"]).build_session()
    opened = time.perf_counter()
    result = session.detect()
    detected = time.perf_counter()
    record = result_record(session, result)
    record.update(
        import_s=imported - _STARTED,
        open_s=opened - imported,
        detect_s=detected - opened,
    )
    return record


def mode_open_cold(args: dict) -> dict:
    """Files -> frozen session, then save it to the store."""
    from repro.api import RunSpec
    from repro.ingest import IndexStore

    spec = RunSpec.load(args["spec"])
    started = time.perf_counter()
    session = spec.build_session()
    opened = time.perf_counter()
    store = IndexStore(args["store"])
    key = store.save(spec, session)
    saved = time.perf_counter()
    snapshot_bytes = sum(
        os.path.getsize(os.path.join(args["store"], name))
        for name in os.listdir(args["store"])
        if name.startswith(key) and name.endswith(".json.gz")
    )
    return {
        "open_s": opened - started,
        "save_s": saved - opened,
        "snapshot_bytes": snapshot_bytes,
        "objects": len(session.ods),
        "statistics": session.index.statistics(),
    }


def mode_open_warm(args: dict) -> dict:
    """Store snapshot -> session ready."""
    from repro.api import RunSpec
    from repro.ingest import IndexStore

    spec = RunSpec.load(args["spec"])
    started = time.perf_counter()
    session = IndexStore(args["store"]).load(spec)
    loaded = time.perf_counter()
    if session is None:
        raise SystemExit("store miss: the snapshot saved in set-up is gone")
    return {
        "load_s": loaded - started,
        "objects": len(session.ods),
        "statistics": session.index.statistics(),
    }


def mode_open_verify(args: dict) -> dict:
    """Cold-built and warm-loaded sessions answer alike (untimed).

    Compared through reads that stay cheap at this size: ``match()``
    would first run the object filter over the whole corpus (43 s at
    n = 2000), so the check scores seeded pairs and searches seeded
    terms against both sessions instead.
    """
    import random

    from repro.api import RunSpec
    from repro.ingest import IndexStore

    spec = RunSpec.load(args["spec"])
    cold = spec.build_session()
    warm = IndexStore(args["store"]).load(spec)
    if warm is None:
        raise SystemExit("store miss: the snapshot saved in set-up is gone")
    sides = []
    for session in (cold, warm):
        index = session.index
        by_id = {od.object_id: od for od in session.ods}
        terms = sorted(index.block_terms())
        picks = random.Random(args["seed"]).sample(terms, min(20, len(terms)))
        blocks = [sorted(index.block_members(term)) for term in picks]
        sides.append(
            {
                "objects": len(by_id),
                "statistics": index.statistics(),
                "ods": digest(
                    [[od.object_id, [[t.value, t.name] for t in od.tuples]]
                     for od in session.ods]
                ),
                "similar_values": [
                    sorted(index.similar_values(*term)) for term in picks
                ],
                "blocks": blocks,
                # first against last member: a pair that shares a block
                "similarities": [
                    session.similarity(by_id[block[0]], by_id[block[-1]])
                    for block in blocks
                ],
            }
        )
    return {"cold": sides[0], "warm": sides[1]}


def mode_reference(args: dict) -> dict:
    """In-process twin of the daemon's session, from the same snapshot.

    Replays the extensions in schedule order and answers the same
    lookups, so the runner can hold served responses against them.
    """
    from repro.api import RunSpec
    from repro.core import Source
    from repro.ingest import IndexStore
    from repro.xmlkit import parse_file

    spec = RunSpec.load(args["spec"])
    session = IndexStore(args["store"]).load(spec)
    if session is None:
        raise SystemExit("store miss: the daemon did not save its snapshot")
    out: dict = {
        "matches": {
            str(object_id): matches_of(session, object_id)
            for object_id in args.get("ids", [])
        },
        "extends": [],
    }
    for path in args.get("extends", []):
        update = session.extend(Source(parse_file(path)))
        out["extends"].append(
            {
                "added": [od.object_id for od in update.added],
                "objects": len(session.ods),
                "duplicate_clusters": len(update.duplicate_clusters),
            }
        )
    out["final_matches"] = {
        str(object_id): matches_of(session, object_id)
        for object_id in args.get("final_ids", [])
    }
    return out


def mode_probe(args: dict) -> dict:
    from probes import mode_probe as run_probes  # beside the tracer it needs

    return run_probes(args)


MODES = {
    "gen": mode_gen,
    "batch": mode_batch,
    "open_cold": mode_open_cold,
    "open_warm": mode_open_warm,
    "open_verify": mode_open_verify,
    "reference": mode_reference,
    "probe": mode_probe,
}


def main(argv: list[str]) -> int:
    record = MODES[argv[1]](json.loads(argv[2]))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
