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

from .api import (
    Corpus,
    DetectionSession,
    Explanation,
    IncrementalUpdate,
    Match,
    RunSpec,
)
from .core import (
    DogmatixConfig,
    DogmatixSimilarity,
    KClosestDescendants,
    ObjectFilter,
    RDistantAncestors,
    RDistantDescendants,
    Source,
    c_and,
    c_cm,
    c_me,
    c_or,
    c_sdt,
    c_se,
    h_and,
    h_or,
)
from .engine import ExecutionPolicy, ParallelClassifier
from .framework import (
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    DetectionResult,
    ObjectDescription,
    ODTuple,
    ThresholdClassifier,
    TypeMapping,
    mapping_from_xml,
)

__version__ = "1.0.0"

__all__ = [
    "CandidateDefinition",
    "Corpus",
    "DescriptionDefinition",
    "DetectionPipeline",
    "DetectionResult",
    "DetectionSession",
    "Explanation",
    "IncrementalUpdate",
    "Match",
    "RunSpec",
    "DogmatixConfig",
    "DogmatixSimilarity",
    "ExecutionPolicy",
    "KClosestDescendants",
    "ODTuple",
    "ObjectDescription",
    "ObjectFilter",
    "ParallelClassifier",
    "RDistantAncestors",
    "RDistantDescendants",
    "Source",
    "ThresholdClassifier",
    "TypeMapping",
    "c_and",
    "c_cm",
    "c_me",
    "c_or",
    "c_sdt",
    "c_se",
    "h_and",
    "h_or",
    "mapping_from_xml",
    "__version__",
]
