"""The import graph follows the call graph (PR 24).

One fresh interpreter per entry path — a warm open, a cold serial batch
run, ``cli match --store``, the daemon — and the ``repro`` modules each
one loaded are held to a list committed here, so adding an import to an
entry path is a reviewed diff, not a start-up cost nobody saw.  The
children run the program as shipped: no bytecode cache, a corpus
without XSDs (``tests/import_closure_child.py``).

The same lists, the CLI's sub-commands and the ``repro`` names the
benchmark, the paper-figure scripts, the examples and the README use
are, together, everything that runs the package: a module none of them
reaches is one only the tests call, and is not shipped.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec
from repro.ingest import IndexStore

CHILD = Path(__file__).with_name("import_closure_child.py")

CORPUS = """\
<db>
  <cd><artist>Nina Simone</artist><title>Pastel Blues</title><year>1965</year></cd>
  <cd><artist>Nina Simonne</artist><title>Pastel Blues</title><year>1965</year></cd>
  <cd><artist>John Coltrane</artist><title>Giant Steps</title><year>1960</year></cd>
  <cd><artist>Alice Coltrane</artist><title>Journey in Satchidananda</title><year>1971</year></cd>
</db>
"""

MAPPING = """\
<mapping>
  <type name="DISC"><xpath>/db/cd</xpath></type>
  <type name="ARTIST"><xpath>/db/cd/artist</xpath></type>
  <type name="TITLE"><xpath>/db/cd/title</xpath></type>
  <type name="YEAR"><xpath>/db/cd/year</xpath></type>
</mapping>
"""


def modules(text: str) -> frozenset:
    return frozenset("repro" + name for name in text.split()) | {"repro"}


#: What every path below loads: the spec and its registries, the config,
#: the mapping (and the parser that reads it), the index, step 5,
#: the session.
SESSION = modules(
    """
    ._lazy
    .api .api.corpus .api.registries .api.session .api.spec
    .core .core.config .core.heuristics .core.index
    .core.matching .core.object_filter .core.similarity
    .core.source
    .engine .engine.policy
    .framework .framework.classifier .framework.mapping .framework.od
    .strings .strings.levenshtein .strings.qgram
    .xmlkit .xmlkit.parser .xmlkit.tree
    """
)

#: Steps 1-3 from files: schema inference, description selection, XPath.
COLD_OPEN = modules(
    """
    .core.selection .framework.description
    .xmlkit.schema .xmlkit.schema_infer .xmlkit.xpath
    """
)

#: ``detect()``: the result types and step 6.
DETECT = modules(
    """
    .framework.clustering .framework.result
    """
)

EXPECTED = {
    "warm": SESSION | modules(".ingest .ingest.store"),
    "batch": SESSION | COLD_OPEN | DETECT,
    "match": SESSION | modules(".cli .ingest .ingest.store"),
    # the one process that imports ahead of use (repro.serve.daemon)
    "serve": SESSION
    | COLD_OPEN
    | DETECT
    | modules(
        """
        .cli .ingest .ingest.store
        .serve .serve.daemon .serve.sessions
        .core.conditions
        .framework.incremental .framework.representatives
        .xmlkit.schema_parser .xmlkit.serialize
        """
    ),
}

#: What a warm open must never load, whatever else changes.
NOT_ON_A_WARM_OPEN = modules(
    """
    .ingest.builder .compact
    .framework.relational .framework.incremental .framework.pipeline
    .xmlkit.schema_parser .xmlkit.serialize
    .serve .analysis .datagen .eval .baselines .engine.pool
    """
) - {"repro"} | {"multiprocessing", "concurrent.futures"}


#: What the daemon's process never loads: the stdlib's HTTP server and
#: client, TLS, the mail parser they use, and what ``http.server`` drew
#: in for static files.  A name covers its submodules.
NOT_IN_THE_DAEMON = frozenset(
    {"http.server", "http.client", "ssl", "email", "mimetypes", "html"}
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(spec path, store path) of a saved four-record corpus, no XSD."""
    base = tmp_path_factory.mktemp("closure")
    (base / "cds.xml").write_text(CORPUS, encoding="utf-8")
    (base / "mapping.xml").write_text(MAPPING, encoding="utf-8")
    spec = RunSpec(
        documents=["cds.xml"], mapping="mapping.xml", real_world_type="DISC"
    )
    spec.save(str(base / "run.json"))
    spec = RunSpec.load(str(base / "run.json"))
    IndexStore(base / "store").save(spec, spec.build_session())
    return str(base / "run.json"), str(base / "store")


def run_child(mode: str, corpus) -> dict:
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")  # the shipped defaults
    }
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, str(CHILD), mode, *corpus],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def ours(loaded) -> frozenset:
    return frozenset(
        name for name in loaded if name == "repro" or name.startswith("repro.")
    )


def difference(loaded: frozenset, expected: frozenset) -> dict:
    return {
        "loaded but not listed": sorted(loaded - expected),
        "listed but not loaded": sorted(expected - loaded),
    }


def test_import_repro_loads_the_package_and_the_helper(corpus):
    assert ours(run_child("bare", corpus)["loaded"]) == {"repro", "repro._lazy"}


@pytest.mark.parametrize("path", ["warm", "batch", "match"])
def test_entry_path_loads_its_committed_list(corpus, path):
    loaded = ours(run_child(path, corpus)["loaded"])
    assert loaded == EXPECTED[path], difference(loaded, EXPECTED[path])


def test_warm_open_stays_clear_of_what_it_never_runs(corpus):
    loaded = frozenset(run_child("warm", corpus)["loaded"])
    assert not loaded & NOT_ON_A_WARM_OPEN, sorted(loaded & NOT_ON_A_WARM_OPEN)
    assert not any(name.startswith("multiprocessing.") for name in loaded)


def test_the_committed_lists_stay_within_their_budgets():
    assert len(EXPECTED["warm"]) <= 40
    assert len(EXPECTED["batch"]) <= 50
    assert not EXPECTED["warm"] & NOT_ON_A_WARM_OPEN


@pytest.fixture(scope="module")
def daemon_child(corpus):
    return run_child("serve", corpus)


def test_daemon_imports_ahead_of_its_requests(daemon_child):
    """Everything a route reaches is loaded before the first request:
    the ``repro`` set never grows, and nothing at all is imported by the
    second request of a route."""
    snapshots = daemon_child
    started = ours(snapshots["started"])
    assert started == EXPECTED["serve"], difference(started, EXPECTED["serve"])
    # ... but not the standard library's pool machinery
    assert not {"multiprocessing", "concurrent.futures"} & set(snapshots["started"])
    assert ours(snapshots["first"]) == started
    assert snapshots["second"] == snapshots["first"]


def test_the_daemon_serves_without_the_stdlib_http_layer(daemon_child):
    found = sorted(
        name for name in daemon_child["started"]
        if any(
            name == banned or name.startswith(banned + ".")
            for banned in NOT_IN_THE_DAEMON
        )
    )
    assert not found, found


def repro_imports(code: str, package: str = "") -> set:
    """``(module, name)`` for every ``repro`` import in ``code`` — at
    module level or inside a function; ``name`` is None for ``import
    module``.  Relative imports resolve against ``package``."""
    found = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            found.update((module, alias.name) for alias in node.names)
    return {
        (module, name) for module, name in found if module.split(".")[0] == "repro"
    }


def readme_references(text: str) -> set:
    """The README's ``python`` blocks and import spans as
    :func:`repro_imports` reads them, plus each dotted ``repro.x.Name``
    it names in a code span as ``(module, name)``."""
    code = re.findall(r"```python\n(.*?)```", text, re.S)
    code += re.findall(r"`((?:from|import) repro[^`]*)`", text)
    found = set().union(*(repro_imports(block) for block in code))
    for dotted in re.findall(r"`(repro(?:\.\w+)+)`", text):
        module, _, name = dotted.rpartition(".")
        found.add((module, name))
    return found


#: Imports each name of ``sys.argv[1]``'s pairs the way its importer
#: does, through the lazy packages, and prints the ``repro`` modules
#: loaded; a name that no longer resolves fails the import.
REACH = """
import importlib, json, sys
for module, name in json.loads(sys.argv[1]):
    imported = importlib.import_module(module)
    if name == "*":
        exec("from " + module + " import *", {})
    elif name is not None and not hasattr(imported, name):
        importlib.import_module(module + "." + name)
print(json.dumps(sorted(sys.modules)))
"""


def test_every_shipped_module_is_reached_by_something_that_runs():
    src = Path(repro.__file__).parent
    repo = src.parents[1]
    reached = {(module, None) for path in EXPECTED.values() for module in path}
    reached |= repro_imports((src / "cli.py").read_text(), package="repro")
    for folder in ("bench", "benchmarks", "examples"):
        for script in sorted((repo / folder).glob("*.py")):
            reached |= repro_imports(script.read_text(encoding="utf-8"))
    reached |= readme_references((repo / "README.md").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, "-c", REACH, json.dumps(sorted(reached, key=str))],
        env=dict(os.environ, PYTHONPATH=str(src.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = ours(json.loads(done.stdout.splitlines()[-1]))
    shipped = set()
    for path in src.rglob("*.py"):
        parts = path.relative_to(src.parent).with_suffix("").parts
        shipped.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    orphans = sorted(shipped - loaded)
    assert not orphans, f"modules nothing but the tests reaches: {orphans}"
