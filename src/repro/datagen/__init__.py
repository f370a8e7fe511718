"""datagen: synthetic equivalents of the paper's datasets.

FreeDB-like CD corpora (Datasets 1 and 3), the two-source movie corpus
(Dataset 2), the XML Dirty Data Generator, and the paper's running
example.  All generators are seeded and fully deterministic; generated
objects carry a ``gid`` attribute as the gold standard (attributes
never reach object descriptions).
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "DirtyConfig": "dirty",
        "DirtyDataGenerator": "dirty",
        "gold_id": "dirty",
        "CDCorpus": "freedb",
        "CDRecord": "freedb",
        "CD_XSD": "freedb",
        "cd_schema": "freedb",
        "cd_to_element": "freedb",
        "freedb_corpus": "freedb",
        "freedb_large_corpus": "freedb",
        "generate_cds": "freedb",
        "FILMDIENST_XSD": "movies",
        "IMDB_XSD": "movies",
        "MovieCorpus": "movies",
        "MovieRecord": "movies",
        "filmdienst_element": "movies",
        "filmdienst_schema": "movies",
        "generate_movies": "movies",
        "imdb_element": "movies",
        "imdb_schema": "movies",
        "movie_corpus": "movies",
        "movie_mapping": "movies",
        "PAPER_EXAMPLE_XML": "paper_example",
        "PAPER_EXAMPLE_XSD": "paper_example",
        "paper_example_document": "paper_example",
        "paper_example_mapping": "paper_example",
        "paper_example_schema": "paper_example",
        "DEFAULT_SYNONYMS": "synonyms",
        "SynonymTable": "synonyms",
        "corrupt": "typos",
        "introduce_typo": "typos",
    },
)

#: Gold-standard attribute carried by generated objects.  Defined here,
#: not in a generator, so that reading the gold standard
#: (``repro.eval.gold``) compiles no generator.
GOLD_ATTRIBUTE = "gid"
__all__.append("GOLD_ATTRIBUTE")
