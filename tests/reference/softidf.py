"""softIDF of a pair of OD tuples (Definition 8 of the paper), through
the index, kept as the oracle the filter's sums and the score's terms
are held to.

The identifying power of a term is its inverse document frequency over
the candidate set Ω_T.  Because DogmatiX matches *similar* values, not
only equal ones, the IDF of a matched pair counts the objects containing
either endpoint:

    softIDF((odt_i, odt_j)) = log(|Ω_T| / |O_odt_i ∪ O_odt_j|)

``setSoftIDF`` sums softIDF over a set of pairs (the sums
:class:`~repro.core.similarity.DogmatixSimilarity` divides).  Contradictory
pairs use the same formula (their identifying power weighs the *difference*
of two objects in the denominator of ``sim``).

Shipped as ``repro.core.softidf`` until the object filter read a term's
softIDF through ``CorpusIndex.term_idf``; nothing in the library calls
these two functions since, so they live with the other oracles.
"""

from __future__ import annotations

from repro.core.index import CorpusIndex
from repro.framework.od import ODTuple


def soft_idf(odt_i: ODTuple, odt_j: ODTuple, index: CorpusIndex) -> float:
    """softIDF of a pair of OD tuples over the corpus.

    Unseen terms (external descriptions) count as occurring once, so
    the ratio stays finite; a term occurring in every object has IDF 0.
    Memoized at the index level — terms repeat across the O(n²) pairs.
    """
    return index.pair_idf(
        index.key_of(odt_i.name),
        odt_i.value,
        index.key_of(odt_j.name),
        odt_j.value,
    )


def singleton_soft_idf(odt: ODTuple, index: CorpusIndex) -> float:
    """softIDF of the degenerate pair (odt, odt) — a single term's IDF."""
    return soft_idf(odt, odt, index)
