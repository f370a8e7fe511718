"""What every workload shares: sizes, one run's bookkeeping, children.

The runner drives the program from outside and never imports it: every
call into the program happens in a child started with
``PYTHONHASHSEED=0``, ``src/`` on ``PYTHONPATH`` and no ``REPRO_*``
variable, so what is timed is the program as shipped.

Every timing that has repeats is reported as their minimum.  The host
has two speeds about 1.5x apart and stays on one for seconds to minutes,
so the median of a run's repeats says which speed the run mostly met
(ten runs of the same warm open: medians 507 to 841 ms, minima 490 to
555 ms).  The fastest repeat is the one the host did not slow down, and
a change to the program moves it like any other repeat.  To have more
repeats to choose from, the process-per-operation workloads run one
operation on each core at a time (``LANES``): side by side two of them
take as long as alone (medians 1.095 and 1.088 s, minima 0.919 and
0.936 s), and often one core is slow while the other is not.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 7
#: Reported on the result line, which needs a number for every declared
#: name, for a per-layer metric this run has no value for: the workload
#: does not exercise the layer, or its probe failed — and then
#: ``trace.probe_errors`` on the same line is not 0.  ``null`` in
#: ``results.json`` and the trace files.
NOT_MEASURED = -1.0

#: Set-ups per run by kind of workload; the fastest is ``setup_s``.  They
#: are spread over the run, between operations or on either side of the
#: served window, so that a slow spell of the host misses at least one.
#: (batch: one ahead of every round, see ``batch.py``.)
SETUPS = {"open": 3, "serve_read": 3, "serve_mixed": 3}
#: Operations of a process-per-operation workload that run side by side.
LANES = min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    dataset: str
    n: int
    smoke_n: int


#: Sizes fit the driver's time cap (22 runs per workload, 30 s each on
#: average with set-up) on a 2-core box: a run takes 18 to 22 s when the
#: host is fast and up to 27 s when it is slow.  The batch corpora are
#: small enough for every one of them to be dedupped three times in a run
#: (0.8 s each; ``detect()`` is three fifths of that and grows with n
#: squared).
#: serve_mixed is the smallest because its set-up, run three times, holds
#: the first ``extend()``, which seeds the incremental deduplicator with
#: the whole corpus (5 s at n = 200); Dataset 3 needs n >= 114 for its 57
#: planted pairs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch_dense", "batch", "d1", 224, 60),
        Workload("batch_sparse", "batch", "d3", 224, 150),
        Workload("open_large", "open", "d3", 1200, 150),
        Workload("serve_read", "serve_read", "d1", 200, 40),
        Workload("serve_mixed", "serve_mixed", "d1", 100, 40),
    )
}


def declared() -> dict:
    """``BENCHMARK.json``: the names, units and bounds of record."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_env(*python_path: Path) -> dict[str, str]:
    """The environment of every process that runs the program."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(str(path) for path in python_path)
    return env


class ChildFailed(RuntimeError):
    """An end-to-end path could not run: the benchmark exits non-zero."""


@dataclass
class Run:
    """One run of one workload: its inputs, counts and results."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, Optional[float]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    probe_errors: list[dict] = field(default_factory=list)
    child_traces: list[dict] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    def __post_init__(self) -> None:
        self.dir = OUT / f"{self.workload.name}-{self.seed}-{os.getpid()}"
        if self.trace:
            self.tracer = Tracer(f"{self.workload.name}-seed{self.seed}")

    @property
    def n(self) -> int:
        return self.workload.smoke_n if self.smoke else self.workload.n

    @property
    def lanes(self) -> int:
        # a traced run records a span per child, from one thread
        return 1 if self.trace else LANES

    @property
    def setups(self) -> int:
        # a traced run reports no setup_s, so it sets up once
        if self.smoke or self.trace:
            return 1
        return SETUPS[self.workload.kind]

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def operation(self, ok: bool, what: str) -> None:
        """Count one attempted operation or check; record a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check_equal(self, got, want, what: str) -> None:
        self.operation(got == want, f"{what}: {_brief(got)} != {_brief(want)}")

    def child(self, mode: str, args: dict) -> tuple[dict, float]:
        """Run one pinned child; its record and the outside wall time."""
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "children.py"), mode, json.dumps(args)],
            capture_output=True, text=True, env=program_env(SRC, BENCH),
            timeout=170,
        )
        ended = time.perf_counter()
        if self.tracer is not None:  # traced runs have one lane
            self.tracer.add_span(f"child.{mode}", started, ended)
        if proc.returncode != 0:
            raise ChildFailed(
                f"{mode} child exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1]), ended - started

    def probe(self, groups: list[str], **args) -> dict:
        """Run probe groups in one child and adopt what they measured."""
        probed, _ = self.child(
            "probe",
            {"groups": groups, "seed": self.seed, "run": self.tracer.run_id,
             **args},
        )
        self.metrics.update(probed["metrics"])
        self.probe_errors.extend(probed["probe_errors"])
        self.child_traces.append(probed["trace"])
        return probed


def _brief(value) -> str:
    text = json.dumps(value, default=str)
    return text if len(text) <= 120 else text[:117] + "..."


class Daemon:
    """``python -m repro.cli serve`` as a child on a free port."""

    host = "127.0.0.1"

    def __init__(self, store: Path, log: Path) -> None:
        self._log = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--port", "0", "--quiet"],
            stdout=subprocess.DEVNULL, stderr=self._log, env=program_env(SRC),
        )
        try:
            self.port = self._await_port(log)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, log: Path) -> int:
        """The daemon announces ``http://host:port`` on stderr."""
        marker = "serving detection on http://"
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ChildFailed(f"daemon exited: {log.read_text()[-2000:]}")
            text = log.read_text()
            if marker in text and "\n" in text[text.index(marker):]:
                address = text[text.index(marker) + len(marker):].split()[0]
                return int(address.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise ChildFailed("daemon did not report its port within 30 s")

    def rss_mb(self) -> float:
        """Peak resident set of the daemon so far (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ChildFailed("no VmHWM in the daemon's /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
