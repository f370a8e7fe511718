"""core: the DogmatiX algorithm (the paper's primary contribution).

Description-selection heuristics and conditions (Sec. 4), the
softIDF-weighted similarity measure and object filter (Sec. 5).
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "CandidateSuggestion": "candidates_auto",
        "best_candidate": "candidates_auto",
        "suggest_candidates": "candidates_auto",
        "CombinedCondition": "conditions",
        "Condition": "conditions",
        "c_and": "conditions",
        "c_cm": "conditions",
        "c_me": "conditions",
        "c_or": "conditions",
        "c_sdt": "conditions",
        "c_se": "conditions",
        "DogmatixConfig": "config",
        "Source": "source",
        "CombinedHeuristic": "heuristics",
        "Heuristic": "heuristics",
        "KClosestDescendants": "heuristics",
        "RDistantAncestors": "heuristics",
        "RDistantDescendants": "heuristics",
        "h_and": "heuristics",
        "h_or": "heuristics",
        "relative_xpath": "heuristics",
        "CorpusIndex": "index",
        "IndexPartial": "index",
        "TupleMatching": "matching",
        "match_tuples": "matching",
        "ObjectFilter": "object_filter",
        "DescriptionSelector": "selection",
        "candidate_schema_element": "selection",
        "refine": "selection",
        "DogmatixSimilarity": "similarity",
    },
)
