"""Shared fixtures: the paper's running example and small corpora."""

from __future__ import annotations

import pytest

from repro.datagen import (
    paper_example_document,
    paper_example_mapping,
    paper_example_schema,
)
import repro.xmlkit.tree as tree_module
from repro.framework import generate_ods, DescriptionDefinition
from repro.xmlkit import parse


@pytest.fixture()
def movie_doc():
    """The Table 1 document (3 movies, 2 of them duplicates)."""
    return paper_example_document()


@pytest.fixture()
def movie_schema():
    """The Fig. 2 schema."""
    return paper_example_schema()


@pytest.fixture()
def movie_mapping():
    """The Table 3 mapping."""
    return paper_example_mapping()


@pytest.fixture()
def movie_ods(movie_doc):
    """The Table 2 object descriptions (title, year, actor names)."""
    definition = DescriptionDefinition(
        ("./title", "./year", "./actor/name")
    )
    candidates = movie_doc.root.find_all("movie")
    return generate_ods(definition, candidates)


@pytest.fixture()
def tiny_doc():
    return parse(
        "<root><item id='1'><a>x</a><b>y</b></item>"
        "<item id='2'><a>x2</a></item></root>"
    )


@pytest.fixture()
def decodes(monkeypatch) -> list:
    """Every stored tree's decode (a call of the one decode function,
    :func:`repro.xmlkit.tree.document_from_record`) while the fixture is
    live."""
    seen: list = []
    real = tree_module.document_from_record

    def counting(record):
        seen.append(record)
        return real(record)

    monkeypatch.setattr(tree_module, "document_from_record", counting)
    return seen
