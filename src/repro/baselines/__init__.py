"""baselines: the related-work comparators (Section 7 of the paper).

* sorted-neighborhood (merge/purge, [7]/[12]) as a pair source;
* DELPHI-style asymmetric containment ([1]);
* vector-space tf-idf cosine ([4]);
* Zhang–Shasha tree edit distance ([6]).

All plug into the same framework pipeline as DogmatiX, so benchmark
comparisons isolate the measure/blocking choice.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "ContainmentSimilarity": "delphi",
        "DelphiClassifier": "delphi",
        "hierarchical_prune": "delphi",
        "SortedNeighborhood": "sorted_neighborhood",
        "default_key": "sorted_neighborhood",
        "TreeEditClassifier": "tree_edit",
        "TreeEditSimilarity": "tree_edit",
        "normalized_tree_distance": "tree_edit",
        "size_lower_bound": "tree_edit",
        "tree_edit_distance": "tree_edit",
        "VectorSpaceSimilarity": "vector_space",
    },
)
