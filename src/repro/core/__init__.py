"""core: the DogmatiX algorithm (the paper's primary contribution).

Description-selection heuristics and conditions (Sec. 4), the
softIDF-weighted similarity measure and object filter (Sec. 5), and the
worker-side factories that rebuild the classifier and shard runtime
(Sec. 3's steps 4-5) inside pool processes.
"""

from .conditions import (
    CombinedCondition,
    Condition,
    c_and,
    c_cm,
    c_me,
    c_or,
    c_sdt,
    c_se,
)
from .candidates_auto import CandidateSuggestion, best_candidate, suggest_candidates
from .config import DogmatixConfig
from .dogmatix import DogmatixClassifierFactory, DogmatixShardFactory, Source
from .encodings import (
    INDEX_ENCODINGS,
    CompactTermIndex,
    DictTermState,
    default_index_encoding,
)
from .heuristics import (
    CombinedHeuristic,
    Heuristic,
    KClosestDescendants,
    RDistantAncestors,
    RDistantDescendants,
    h_and,
    h_or,
    relative_xpath,
)
from .index import CorpusIndex, IndexPartial
from .matching import TupleMatching, match_tuples, similar_pairs_exist
from .object_filter import FilterDecision, ObjectFilter
from .odtdist import odt_dist, odt_similar
from .selection import DescriptionSelector, candidate_schema_element, refine
from .similarity import DogmatixSimilarity
from .softidf import set_soft_idf, singleton_soft_idf, soft_idf

__all__ = [
    "CandidateSuggestion",
    "CombinedCondition",
    "CombinedHeuristic",
    "CompactTermIndex",
    "Condition",
    "CorpusIndex",
    "DictTermState",
    "INDEX_ENCODINGS",
    "DescriptionSelector",
    "DogmatixClassifierFactory",
    "DogmatixShardFactory",
    "DogmatixConfig",
    "DogmatixSimilarity",
    "FilterDecision",
    "Heuristic",
    "IndexPartial",
    "KClosestDescendants",
    "ObjectFilter",
    "RDistantAncestors",
    "RDistantDescendants",
    "Source",
    "TupleMatching",
    "best_candidate",
    "c_and",
    "c_cm",
    "c_me",
    "c_or",
    "c_sdt",
    "c_se",
    "candidate_schema_element",
    "default_index_encoding",
    "h_and",
    "h_or",
    "match_tuples",
    "odt_dist",
    "odt_similar",
    "refine",
    "relative_xpath",
    "set_soft_idf",
    "similar_pairs_exist",
    "singleton_soft_idf",
    "soft_idf",
    "suggest_candidates",
]
