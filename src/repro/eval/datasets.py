"""Assembled evaluation datasets (Section 6.1 of the paper).

* Dataset 1 — 500 non-duplicate CDs + 500 artificial duplicates from
  the dirty-data generator (100% duplicates, 20% typos, 10% missing,
  8% synonyms);
* Dataset 2 — 500 movies from an IMDB-shaped source + the same movies
  from a Film-Dienst-shaped source;
* Dataset 3 — a large "random FreeDB extract" with planted natural
  duplicates.

Each builder returns the document(s), the mapping *M*, and enough
metadata to derive the gold standard.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.source import Source
from ..datagen.dirty import DirtyConfig, DirtyDataGenerator
from ..datagen.freedb import (
    cd_schema,
    cd_to_element,
    freedb_large_corpus,
    generate_cds,
)
from ..datagen.movies import (
    filmdienst_schema,
    imdb_schema,
    movie_corpus,
    movie_mapping,
)
from ..framework.mapping import TypeMapping
from ..xmlkit.tree import Document, Element


def cd_mapping() -> TypeMapping:
    """The mapping *M* for the CD datasets (Table 5 inventory)."""
    return (
        TypeMapping()
        .add("DISC", "/freedb/disc")
        .add("DID", "/freedb/disc/did")
        .add("CDARTIST", "/freedb/disc/artist")
        .add("CDTITLE", "/freedb/disc/title")
        .add("CDGENRE", "/freedb/disc/genre")
        .add("CDYEAR", "/freedb/disc/year")
        .add("CDEXTRA", "/freedb/disc/cdextra")
        .add("TRACKS", "/freedb/disc/tracks")
        .add("TRACKTITLE", "/freedb/disc/tracks/title")
    )


@dataclass
class Dataset:
    """One assembled dataset: sources, mapping, candidate type."""

    sources: list[Source]
    mapping: TypeMapping
    real_world_type: str
    description: str


#: Elements the dirty generator may drop as "missing data" (optional or
#: repeatable per the Table 5 cardinalities).
_CD_OPTIONAL_PATHS = frozenset(
    {"genre", "cdextra", "artist", "title", "tracks/title"}
)


def build_dataset1(
    base_count: int = 500,
    seed: int = 7,
    config: DirtyConfig | None = None,
) -> Dataset:
    """Dataset 1: base CDs plus dirty duplicates in one document."""
    config = config or DirtyConfig.paper_dataset1()
    records = generate_cds(base_count, seed)
    originals = [cd_to_element(record) for record in records]
    generator = DirtyDataGenerator(
        config, seed=seed + 1, optional_paths=_CD_OPTIONAL_PATHS
    )
    duplicates = generator.duplicate_corpus(originals)
    root = Element("freedb")
    for element in originals:
        root.append(element)
    for element in duplicates:
        root.append(element)
    return Dataset(
        sources=[Source(Document(root), cd_schema())],
        mapping=cd_mapping(),
        real_world_type="DISC",
        description=(
            f"Dataset 1: {base_count} CDs + {len(duplicates)} dirty duplicates "
            f"(typo={config.typo_rate:.0%}, missing={config.missing_rate:.0%}, "
            f"synonym={config.synonym_rate:.0%})"
        ),
    )


def build_dataset2(count: int = 500, seed: int = 13) -> Dataset:
    """Dataset 2: the same movies from two differently structured sources."""
    corpus = movie_corpus(count, seed)
    return Dataset(
        sources=[
            Source(corpus.imdb, imdb_schema()),
            Source(corpus.filmdienst, filmdienst_schema()),
        ],
        mapping=movie_mapping(),
        real_world_type="MOVIE",
        description=f"Dataset 2: {count} movies, IMDB shape + Film-Dienst shape",
    )


def build_dataset3(
    count: int = 10_000,
    seed: int = 11,
    exact_duplicate_pairs: int = 27,
    fuzzy_duplicate_pairs: int = 30,
) -> Dataset:
    """Dataset 3: a large CD extract with planted natural duplicates."""
    corpus = freedb_large_corpus(
        count,
        seed,
        exact_duplicate_pairs=exact_duplicate_pairs,
        fuzzy_duplicate_pairs=fuzzy_duplicate_pairs,
    )
    return Dataset(
        sources=[Source(corpus.to_document(), cd_schema())],
        mapping=cd_mapping(),
        real_world_type="DISC",
        description=(
            f"Dataset 3: {len(corpus.records)} CDs, "
            f"{exact_duplicate_pairs} exact + {fuzzy_duplicate_pairs} fuzzy "
            "duplicate pairs planted"
        ),
    )
