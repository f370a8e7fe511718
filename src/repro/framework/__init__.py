"""framework: the generalized duplicate-detection framework (Sec. 2).

Candidate definition, duplicate definition (descriptions + classifiers),
and the six-step detection pipeline, independent of any particular
algorithm.  The candidate and description queries of Section 3.3 run
natively on :mod:`repro.xmlkit.xpath` (``CandidateDefinition.select``,
``DescriptionDefinition``); no XQuery text is rendered.  DogmatiX
(:mod:`repro.core`) and the baselines (:mod:`repro.baselines`) are
specializations of this package.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "CandidateDefinition": "candidates",
        "Classifier": "classifier",
        "DUPLICATES": "classifier",
        "MatchingTuplesClassifier": "classifier",
        "NON_DUPLICATES": "classifier",
        "POSSIBLE_DUPLICATES": "classifier",
        "ThresholdClassifier": "classifier",
        "UnionFind": "clustering",
        "duplicate_clusters": "clustering",
        "DescriptionDefinition": "description",
        "generate_ods": "description",
        "IncrementalDeduplicator": "incremental",
        "MappingError": "mapping",
        "TypeMapping": "mapping",
        "mapping_from_xml": "mapping",
        "ODTuple": "od",
        "ObjectDescription": "od",
        "od_from_pairs": "od",
        "DetectionPipeline": "pipeline",
        "NoPruning": "pruning",
        "ObjectFilterPruning": "pruning",
        "PairSource": "pruning",
        "SharedTupleBlocking": "pruning",
        "count_pairs": "pruning",
        "Relation": "relational",
        "example1_relations": "relational",
        "relational_mapping": "relational",
        "relational_ods": "relational",
        "merge_cluster_od": "representatives",
        "DetectionResult": "result",
        "ScoredPair": "result",
        "clusters_from_xml": "result",
    },
)
