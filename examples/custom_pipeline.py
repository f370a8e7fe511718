#!/usr/bin/env python3
"""Building your own detector on the framework (Section 2).

The framework separates *what* to compare (candidate definition), *what
describes it* (description definition), *when it's a duplicate*
(classifier), and *how to search* (pair source).  This example composes
a custom detector for a product catalog:

* candidates from two differently named schema elements,
* a hand-picked description (the framework does not require the
  DogmatiX heuristics),
* a Jaro-Winkler-based classifier instead of the softIDF measure,
* sorted-neighborhood comparison reduction from the baselines package,

and contrasts it with DogmatiX configured via heuristics + conditions.

Run:  python examples/custom_pipeline.py
"""

from repro.baselines import SortedNeighborhood
from repro.api import DetectionSession
from repro.core import DogmatixConfig, RDistantDescendants, Source, c_sdt
from repro.framework import (
    CandidateDefinition,
    DescriptionDefinition,
    DetectionPipeline,
    ThresholdClassifier,
    TypeMapping,
)
from repro.strings import jaro_winkler
from repro.xmlkit import parse, strip_positions

CATALOG = """
<catalog>
  <product sku="1">
    <name>Espresso Machine X100</name><brand>Bellagio</brand>
    <price>249.99</price>
  </product>
  <product sku="2">
    <name>食器洗い機</name><brand>Kato</brand><price>399.00</price>
  </product>
  <offer id="a">
    <title>Espresso Machine X-100</title><maker>Bellagio</maker>
    <amount>249.99</amount>
  </offer>
  <offer id="b">
    <title>Garden Hose 20m</title><maker>FlowCo</maker>
    <amount>19.95</amount>
  </offer>
</catalog>
"""


def jw_overlap(od_i, od_j):
    """Average best Jaro-Winkler match per comparable kind."""
    best = []
    for odt_i in od_i.tuples:
        scores = [
            jaro_winkler(odt_i.value, odt_j.value)
            for odt_j in od_j.tuples
            if comparable(odt_i.name, odt_j.name)
        ]
        if scores:
            best.append(max(scores))
    return sum(best) / len(best) if best else 0.0


MAPPING = (
    TypeMapping()
    .add("PRODUCT", ["/catalog/product", "/catalog/offer"])
    .add("NAME", ["/catalog/product/name", "/catalog/offer/title"])
    .add("BRAND", ["/catalog/product/brand", "/catalog/offer/maker"])
    .add("PRICE", ["/catalog/product/price", "/catalog/offer/amount"])
)


def comparable(name_i: str, name_j: str) -> bool:
    return MAPPING.comparable(strip_positions(name_i), strip_positions(name_j))


def main() -> None:
    document = parse(CATALOG)

    # --- custom pipeline ------------------------------------------------
    pipeline = DetectionPipeline(
        candidate_definition=CandidateDefinition(
            "PRODUCT", ("/catalog/product", "/catalog/offer")
        ),
        description_definition=DescriptionDefinition(("./*",)),
        classifier=ThresholdClassifier(jw_overlap, 0.85),
        pair_source=SortedNeighborhood(window=3),
    )
    result = pipeline.run(document)
    print("custom pipeline:", result.summary())
    for cluster in result.clusters:
        print("  cluster:", [result.object_path(oid) for oid in cluster])

    # --- DogmatiX on the same input --------------------------------------
    config = DogmatixConfig(
        heuristic=RDistantDescendants(1),
        condition=c_sdt,          # prices are decimal-typed: excluded
        theta_tuple=0.2,
        theta_cand=0.5,
        use_object_filter=False,
    )
    dogmatix_result = DetectionSession(
        Source(document), MAPPING, "PRODUCT", config
    ).detect()
    print("dogmatix:", dogmatix_result.summary())
    print(dogmatix_result.to_xml())


if __name__ == "__main__":
    main()
