"""open_large: a corpus built cold, then opened warm from the store.

Cold build (parse, schema inference, ODs, index, freeze) and snapshot
save are this workload's *set-up*; one operation is a fresh process
that warm-loads the session from the ``IndexStore``.  A change that
trades one side for the other shows on both: ``setup_s`` and
``op_p50_ms``.  There is one snapshot, so one distinct operation, and
its time is the fastest of the window's warm opens, which run one on
each core at a time (see ``harness``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

from harness import Run


def run_open(run: Run) -> None:
    base = run.dir / "inputs"
    store = str(run.dir / "store")
    spec = str(base / "run.json")

    def set_up() -> tuple[dict, dict, float]:
        """Inputs, then cold build + snapshot save in a fresh process."""
        run.fresh_dir("inputs")
        run.fresh_dir("store")
        started = time.perf_counter()
        generated, _ = run.child(
            "gen",
            {"corpora": [{"out": str(base), "dataset": run.workload.dataset,
                          "n": run.n, "seed": run.seed}]},
        )
        cold, cold_wall = run.child("open_cold", {"spec": spec, "store": store})
        cold["wall_s"] = cold_wall
        return generated, cold, time.perf_counter() - started

    def lane(seconds: float) -> list[tuple[dict, float]]:
        """Warm opens, one after the other, for ``seconds``."""
        opens, measured = [], 0.0
        while not opens or measured < seconds:
            opens.append(run.child("open_warm", {"spec": spec, "store": store}))
            measured += opens[-1][1]
        return opens

    setup_samples, walls, rss, loads = [], [], [], []
    for _ in range(run.setups):
        # the set-ups split the window into equal parts; each builds the
        # same snapshot again, so the warm opens after it do not differ
        generated, cold, wall = set_up()
        setup_samples.append(wall)
        with ThreadPoolExecutor(run.lanes) as pool:
            lanes = list(pool.map(lane, [run.seconds / run.setups] * run.lanes))
        for warm, wall in (op for opens in lanes for op in opens):
            run.operation(
                warm["objects"] == cold["objects"] == run.n
                and warm["statistics"] == cold["statistics"],
                "warm session differs from the cold one in size or statistics",
            )
            walls.append(wall)
            loads.append(warm["load_s"])
            rss.append(warm["peak_rss_mb"])

    sides, _ = run.child(
        "open_verify", {"spec": spec, "store": store, "seed": run.seed}
    )
    for part in sides["cold"]:
        run.check_equal(
            sides["warm"][part], sides["cold"][part], f"warm vs cold {part}"
        )

    xml_bytes = generated["corpora"][0]["xml_bytes"]
    run.metrics.update(
        {
            "op_p50_ms": min(walls) * 1000,
            "peak_rss_mb": median(rss),
            "setup_s": min(setup_samples),
        }
    )
    run.details.update(
        objects=run.n, repeats=len(walls), lanes=run.lanes,
        setup_samples_s=setup_samples,
        op_samples_ms=[w * 1000 for w in walls],
        xml_bytes=xml_bytes, snapshot_bytes=cold["snapshot_bytes"],
        cold_peak_rss_mb=cold["peak_rss_mb"], cold_open_s=cold["open_s"],
        save_s=cold["save_s"], warm_load_s=min(loads),
    )
    if run.trace:
        run.probe(
            ["import", "ingest_layers", "index_writes", "ingest"],
            spec=spec, store=str(run.fresh_dir("probe-store")),
        )
        run.metrics.update(
            {
                # the same fresh process as a warm open, the save taken out
                "e2e.open_cold_s": cold["wall_s"] - cold["save_s"],
                "e2e.snapshot_save_s": cold["save_s"],
                "e2e.open_warm_s": min(walls),
                "e2e.snapshot_bytes_ratio": cold["snapshot_bytes"] / xml_bytes,
            }
        )
