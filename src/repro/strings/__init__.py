"""strings: string-similarity substrate.

Edit distance (one bit-parallel kernel) with thresholded checks, cheap
lower/upper bounds, two interchangeable similarity-search indexes (the
q-gram count-filter oracle and the prefix-signature strategy),
Jaro/Jaro–Winkler, and token-set measures.
"""

from .bounds import (
    BoundedMatcher,
    bag_distance,
    bound_verdict,
    edit_distance_lower_bound,
    edit_distance_upper_bound,
    length_lower_bound,
    normalized_lower_bound,
    normalized_upper_bound,
)
from .jaro import jaro, jaro_winkler
from .levenshtein import (
    edit_distance,
    ned_cached,
    normalized_edit_distance,
    strict_budget,
    within_normalized,
)
from .qgram import QGramIndex
from .signatures import SignatureIndex
from .tokenize import dice, jaccard, normalize, overlap, tokens
from .value_index import ValueIndex, qgrams

#: Similar-value search strategies: registry-name -> index class.  Both
#: answer thresholded ``ned`` probes with identical result sets; they
#: differ only in candidate generation (``bench/`` reports the counts
#: as ``strings.search_probes`` / ``strings.search_verifications``).
SIMILARITY_STRATEGIES: dict[str, type] = {
    QGramIndex.strategy: QGramIndex,
    SignatureIndex.strategy: SignatureIndex,
}


def make_value_index(strategy: str, q: int = 2):
    """Construct the value index a strategy name describes.

    Raises :class:`LookupError` naming the known strategies, matching
    the registry error style of :mod:`repro.api.registries`.
    """
    index_class = SIMILARITY_STRATEGIES.get(strategy)
    if index_class is None:
        raise LookupError(
            f"unknown similarity strategy {strategy!r}; registered: "
            f"{', '.join(sorted(SIMILARITY_STRATEGIES))}"
        )
    return index_class(q=q)


__all__ = [
    "BoundedMatcher",
    "QGramIndex",
    "SIMILARITY_STRATEGIES",
    "SignatureIndex",
    "ValueIndex",
    "bag_distance",
    "bound_verdict",
    "dice",
    "edit_distance",
    "edit_distance_lower_bound",
    "edit_distance_upper_bound",
    "jaccard",
    "jaro",
    "ned_cached",
    "jaro_winkler",
    "length_lower_bound",
    "make_value_index",
    "normalize",
    "normalized_edit_distance",
    "normalized_lower_bound",
    "normalized_upper_bound",
    "overlap",
    "qgrams",
    "strict_budget",
    "tokens",
    "within_normalized",
]
