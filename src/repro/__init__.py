"""DogmatiX: duplicate detection in XML.

A complete reproduction of Weis & Naumann, "DogmatiX Tracks down
Duplicates in XML" (SIGMOD 2005): the generalized duplicate-detection
framework, the DogmatiX algorithm with its schema-driven description
heuristics and softIDF similarity measure, the substrates they need
(XML stack, string similarity), dataset generators, baselines, and an
evaluation harness regenerating the paper's figures.

Quickstart (session API — build once, query many times)::

    from repro import DetectionSession, Source, TypeMapping
    from repro.xmlkit import parse

    mapping = TypeMapping().add("MOVIE", "/moviedoc/movie") \
                           .add("TITLE", "/moviedoc/movie/title")
    session = DetectionSession(Source(parse(xml_text)), mapping, "MOVIE")
    print(session.detect().to_xml())        # batch run
    print(session.match(0))                 # partners of one object
"""

from ._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "Corpus": "api.corpus",
        "DetectionSession": "api.session",
        "Explanation": "api.session",
        "IncrementalUpdate": "api.session",
        "Match": "api.session",
        "RunSpec": "api.spec",
        "c_and": "core.conditions",
        "c_cm": "core.conditions",
        "c_me": "core.conditions",
        "c_or": "core.conditions",
        "c_sdt": "core.conditions",
        "c_se": "core.conditions",
        "DogmatixConfig": "core.config",
        "Source": "core.source",
        "KClosestDescendants": "core.heuristics",
        "RDistantAncestors": "core.heuristics",
        "RDistantDescendants": "core.heuristics",
        "h_and": "core.heuristics",
        "h_or": "core.heuristics",
        "ObjectFilter": "core.object_filter",
        "DogmatixSimilarity": "core.similarity",
        "ParallelClassifier": "engine.executor",
        "ExecutionPolicy": "engine.policy",
        "CandidateDefinition": "framework.candidates",
        "ThresholdClassifier": "framework.classifier",
        "DescriptionDefinition": "framework.description",
        "TypeMapping": "framework.mapping",
        "mapping_from_xml": "framework.mapping",
        "ODTuple": "framework.od",
        "ObjectDescription": "framework.od",
        "DetectionPipeline": "framework.pipeline",
        "DetectionResult": "framework.result",
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
