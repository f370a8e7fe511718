"""Golden-file regression tests for the Fig. 3 dupcluster document.

``DetectionResult.to_xml()`` is the system's public output format; any
change to serialization, cluster ordering, or XPath rendering must show
up as an explicit golden-file diff, not as a silent drift.

Regenerate after an *intentional* format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_output.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.api import DetectionSession
from repro.core import (
    DogmatixConfig,
    KClosestDescendants,
    RDistantDescendants,
    Source,
)
from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
from repro.eval import build_dataset1
from repro.framework import clusters_from_xml

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def paper_example_result():
    config = DogmatixConfig(
        heuristic=RDistantDescendants(2),
        theta_tuple=0.55,
        theta_cand=0.55,
        use_object_filter=False,
    )
    return DetectionSession(
        Source(paper_example_document(), paper_example_schema()),
        paper_example_mapping(),
        "MOVIE",
        config,
    ).detect()


def dirty_cds_result():
    dataset = build_dataset1(base_count=30, seed=7)
    config = DogmatixConfig(heuristic=KClosestDescendants(6))
    return DetectionSession(
        dataset.sources, dataset.mapping, dataset.real_world_type, config
    ).detect()


CASES = {
    "paper_example_dupclusters.xml": paper_example_result,
    "dataset1_seed7_dupclusters.xml": dirty_cds_result,
}


def check_golden(name: str, produce) -> None:
    path = GOLDEN_DIR / name
    actual = produce().to_xml()
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"dupcluster XML drifted from {path.name}; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_dupclusters(name):
    check_golden(name, CASES[name])


def test_goldens_round_trip():
    """Golden documents stay parseable by the official inverse."""
    for name in CASES:
        text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        real_world_type, clusters = clusters_from_xml(text)
        assert real_world_type in ("MOVIE", "DISC")
        assert all(len(members) >= 2 for members in clusters)
