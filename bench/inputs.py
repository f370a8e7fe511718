"""Input generation: everything a workload feeds the program, from a seed.

Runs inside a pinned child (see ``children.py``) because it imports the
program's data generators.  Inputs are plain XML + a mapping file + a
``RunSpec`` JSON and nothing else — no schema files, so the program
pays schema inference like a user with bare XML does.
"""

from __future__ import annotations

import os
import random

from repro.api import RunSpec
from repro.eval import build_dataset1, build_dataset3
from repro.xmlkit import Document, Element, serialize


def _complete_record_first(records: list[Element]) -> list[Element]:
    """Move the first record that has every child element to the front.

    Schema inference orders elements as it first sees them, and the
    k-closest description heuristic follows that order: when the first
    discs of a seed happen to lack ``cdextra`` the selected description
    has five element kinds instead of six and ``detect()`` does about
    half the work.  That is a property of the seed, not of the program,
    so every corpus starts with a fully populated record.
    """
    def tags(record: Element) -> frozenset[str]:
        return frozenset(child.tag for child in record.children)

    every = frozenset().union(*(tags(record) for record in records))
    for position, record in enumerate(records):
        if tags(record) == every:
            return [record] + records[:position] + records[position + 1:]
    return records


#: ``cdextra`` notes per Dataset 1 record, the generator's long-run
#: average (0.4527 over 20 seeds x 1000 records).
NOTES_PER_RECORD = 0.45


def _evenly_noted(pool: list[Element], count: int) -> list[Element]:
    """``count`` records of the pool, their ``cdextra`` notes spread
    evenly at the generator's average rate.

    The long note strings are what similar-value search and the edit
    distance spend their time on, and the cost grows with the square of
    their number.  A corpus of 100 holds 41 to 66 of them depending on
    the seed (a 2.6x difference in every index operation); drawing from
    a pool twice the size at a fixed rate keeps the seed from deciding
    how expensive the workload is, for the corpus and for every
    extension batch alike.
    """
    def notes(record: Element) -> int:
        return len(record.find_all("cdextra"))

    noted = [record for record in pool if notes(record)]
    plain = [record for record in pool if not notes(record)]
    picked, held = [], 0
    for position in range(count):
        behind = held < (position + 1) * NOTES_PER_RECORD
        picked.append((noted if behind and noted else plain or noted).pop())
        held += notes(picked[-1])
    return picked


def _document(records: list[Element]) -> str:
    root = Element("freedb")
    for record in records:
        root.append(record.copy())
    return serialize(Document(root))


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text.encode("utf-8"))


def generate(
    out: str,
    dataset: str,
    n: int,
    seed: int,
    extend_batches: int = 0,
    extend_size: int = 5,
    foreign: int = 0,
) -> dict:
    """Write one corpus (and, for serve workloads, its request bodies).

    ``dataset`` is ``"d1"`` (Dataset 1: every object has one dirty
    duplicate) or ``"d3"`` (Dataset 3: 57 planted duplicate pairs in a
    large extract).  With ``extend_batches`` the Dataset 1 records are
    shuffled and the tail is held back as ``extend-<k>.xml`` documents
    of ``extend_size`` records, so an extension holds both new objects
    and duplicates of corpus objects.  ``foreign`` writes that many
    single-record documents for ``POST .../match``.
    """
    os.makedirs(out, exist_ok=True)
    held_back = extend_batches * extend_size
    rng = random.Random(seed)
    if dataset == "d3":
        if held_back:
            raise ValueError("extend batches are cut from Dataset 1 only")
        built = build_dataset3(count=n, seed=seed)
        records = list(built.sources[0].document.root.children)
    elif dataset == "d1" and not held_back:
        built = build_dataset1(base_count=(n + 1) // 2, seed=seed)
        records = list(built.sources[0].document.root.children)
    elif dataset == "d1":
        # twice the records needed, so the cut below has a choice
        built = build_dataset1(base_count=n + held_back, seed=seed)
        pool = list(built.sources[0].document.root.children)
        rng.shuffle(pool)
        records = _evenly_noted(pool, n + held_back)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    corpus = _complete_record_first(records[:n])

    xml_bytes = _write(os.path.join(out, "corpus.xml"), _document(corpus))
    _write(os.path.join(out, "mapping.xml"), built.mapping.to_xml())
    RunSpec(
        documents=["corpus.xml"],
        mapping="mapping.xml",
        real_world_type=built.real_world_type,
    ).save(os.path.join(out, "run.json"))
    for batch in range(extend_batches):
        start = n + batch * extend_size
        _write(
            os.path.join(out, f"extend-{batch}.xml"),
            _document(records[start:start + extend_size]),
        )
    for index in range(foreign):
        _write(
            os.path.join(out, f"foreign-{index}.xml"),
            _document([corpus[rng.randrange(len(corpus))]]),
        )
    return {
        "objects": len(corpus),
        "xml_bytes": xml_bytes,
        "extend_batches": extend_batches,
        "extend_size": extend_size,
        "foreign": foreign,
    }
