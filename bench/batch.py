"""batch_dense / batch_sparse: ``dedup`` over XML files, cold.

One operation is a fresh process that loads the spec, builds the
session and runs ``detect()`` (paper steps 1-6).  A run dedups several
corpora, each from its own sub-seed, round after round, one on each
core at a time.  A corpus's time is its fastest repeat (see ``harness``:
the host has two speeds); the run reports the median over the corpora,
because one Dataset 1 corpus of n = 400 differs from the next seed's by
13 % in ``detect()`` time (sigma over ten seeds), which no bound could
tell from a regression.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median
from typing import Optional

from harness import DEFAULT_SEED, Run, digest, expected

BATCH_CORPORA = 8
#: Rounds at the least; more while the window (``--seconds``) is not used
#: up.  A round sets up (generates the inputs again) and then dedups every
#: corpus once per lane; the lanes take the next corpus from one list, so
#: a lane on a slow core does less of the round and does not lengthen it.
BATCH_ROUNDS = 3

#: The spans of the staged pipeline, in pipeline order (see probes.py).
STAGES = (
    "xmlkit.parse", "framework.od_generate", "core.index_build",
    "core.index_freeze", "core.filter_pass", "framework.enumerate",
    "core.similarity", "framework.cluster",
)


def corpora_of(run: Run) -> int:
    return 1 if run.smoke else BATCH_CORPORA


def gen_jobs(run: Run, base: Path) -> dict:
    return {
        "corpora": [
            {
                "out": str(base / f"c{k}"),
                "dataset": run.workload.dataset,
                "n": run.n,
                # spaced out: build_dataset1 also draws from seed + 1
                "seed": run.seed * 1000 + 10 * k,
            }
            for k in range(corpora_of(run))
        ]
    }


def spec_of(base: Path, corpus: int) -> str:
    return str(base / f"c{corpus}" / "run.json")


def answers(record: dict) -> tuple:
    return record["pairs"], record["clusters"]


def batch_digest(records: list[dict]) -> str:
    return digest([list(answers(record)) for record in records])


def run_batch(run: Run) -> None:
    corpora = corpora_of(run)
    base = run.dir / "inputs"
    if run.trace:
        run.child("gen", gen_jobs(run, run.fresh_dir("inputs")))
        return trace_batch(run, base)

    setup_samples = []
    walls: list[list[float]] = [[] for _ in range(corpora)]
    records: list[Optional[dict]] = [None] * corpora
    rss = []
    measured = 0.0

    def dedup(k: int) -> tuple[int, dict, float]:
        return (k, *run.child("batch", {"spec": spec_of(base, k)}))

    while len(setup_samples) < (1 if run.smoke else BATCH_ROUNDS) or (
        measured < run.seconds
    ):
        # the same seed writes the same files, so a round's operations do
        # not differ from the last one's
        _, wall = run.child("gen", gen_jobs(run, run.fresh_dir("inputs")))
        setup_samples.append(wall)
        with ThreadPoolExecutor(run.lanes) as pool:
            # neighbours in the list differ, so no corpus runs twice at once
            ops = list(pool.map(dedup, list(range(corpora)) * run.lanes))
        measured += sum(wall for _, _, wall in ops) / run.lanes
        for k, record, wall in ops:
            run.operation(record["objects"] == run.n, f"corpus {k}: object count")
            if records[k] is None:
                records[k] = record
            else:  # the same corpus again: the program must answer the same
                run.check_equal(
                    answers(record), answers(records[k]),
                    f"corpus {k}: repeat differs from first run",
                )
            walls[k].append(wall)
            rss.append(record["peak_rss_mb"])

    pinned = expected()
    floor = pinned["quality_floor"][run.workload.name]
    quality = median([record["quality_f1"] for record in records])
    run.operation(quality >= floor, f"quality_f1 {quality:.4f} below floor {floor}")
    run.details["digest"] = batch_digest(records)
    if run.seed == DEFAULT_SEED:
        size = "smoke" if run.smoke else "full"
        run.check_equal(
            run.details["digest"],
            pinned["digests"][size].get(run.workload.name),
            "duplicate-pair/cluster digest vs expected.json",
        )

    run.metrics.update(
        {
            "op_p50_ms": median([min(w) for w in walls]) * 1000,
            "peak_rss_mb": median(rss),
            "setup_s": min(setup_samples),
        }
    )
    run.details.update(
        objects=run.n, corpora=corpora, repeats=len(rss), lanes=run.lanes,
        setup_samples_s=setup_samples,
        op_samples_ms=[[w * 1000 for w in per_corpus] for per_corpus in walls],
        quality_f1=[record["quality_f1"] for record in records],
        duplicate_pairs=[len(record["pairs"]) for record in records],
    )


def trace_batch(run: Run, base: Path) -> None:
    """Untraced reference runs, then the staged pipeline and the layer
    probes in one pinned child, all on the first corpus."""
    spec = spec_of(base, 0)
    references = [
        run.child("batch", {"spec": spec}) for _ in range(1 if run.smoke else 3)
    ]
    reference = references[0][0]
    run.operation(reference["objects"] == run.n, "object count")
    for again, _ in references[1:]:  # the same corpus: the same answer
        run.check_equal(
            answers(again), answers(reference),
            "repeat of the reference run differs from the first",
        )
    probed = run.probe(
        ["import", "ingest_layers", "pipeline", "index_writes", "search",
         "api", "engine", "ingest"],
        spec=spec,
        store=str(run.fresh_dir("probe-store")),
        edit_pairs=2000 if run.smoke else 20000,
    )
    overhead = None
    if probed["staged_pairs"] is not None:
        run.check_equal(
            (probed["staged_pairs"], probed["staged_clusters"]),
            answers(reference),
            "staged pairs and clusters vs untraced detect()",
        )
        # the untraced child's own open + detect covers the same steps
        inner = min(r["open_s"] + r["detect_s"] for r, _ in references)
        staged = sum(
            span["end"] - span["start"]
            for span in probed["trace"]["spans"]
            if span["name"] in STAGES
        )
        overhead = (staged - inner) / inner
    cold = min(wall for _, wall in references)
    run.metrics.update(
        {
            "e2e.batch_cold_s": cold,
            "e2e.objects_per_s": run.n / cold,
            "e2e.quality_f1": reference["quality_f1"],
            "trace.overhead_share": overhead,
        }
    )
    run.details.update(objects=run.n, reference_runs=len(references))
