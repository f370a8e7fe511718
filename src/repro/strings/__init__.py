"""strings: string-similarity substrate.

Edit distance (one bit-parallel kernel) with thresholded checks, cheap
lower/upper bounds, the q-gram count-filter index behind every
similar-value search, Jaro/Jaro–Winkler, and token-set measures.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "BoundedMatcher": "bounds",
        "bag_distance": "bounds",
        "bound_verdict": "bounds",
        "edit_distance_lower_bound": "bounds",
        "edit_distance_upper_bound": "bounds",
        "length_lower_bound": "bounds",
        "normalized_lower_bound": "bounds",
        "normalized_upper_bound": "bounds",
        "jaro": "jaro",
        "jaro_winkler": "jaro",
        "edit_distance": "levenshtein",
        "ned_cached": "levenshtein",
        "normalized_edit_distance": "levenshtein",
        "strict_budget": "levenshtein",
        "within_normalized": "levenshtein",
        "QGramIndex": "qgram",
        "make_value_index": "qgram",
        "normalize": "tokenize",
        "overlap": "tokenize",
        "tokens": "tokenize",
        "qgrams": "value_index",
    },
)
