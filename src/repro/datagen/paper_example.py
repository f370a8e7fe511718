"""The paper's running example (Tables 1–3, Figures 2–3).

Three movies — two Matrix representations and Signs — with the schema
of Fig. 2 and the mapping of Table 3.  Used by the quickstart example
and as a fixture for tests that pin the worked-example semantics.
"""

from __future__ import annotations

from ..framework.mapping import TypeMapping
from ..xmlkit.schema import Schema
from ..xmlkit.schema_parser import parse_schema
from ..xmlkit.tree import Document

#: Table 1, rendered as the Fig. 2 document structure.
PAPER_EXAMPLE_XML = """<?xml version="1.0" encoding="UTF-8"?>
<moviedoc>
  <movie id="1">
    <title>The Matrix</title>
    <year>1999</year>
    <actor>
      <name>Keanu Reeves</name>
      <role>Neo</role>
    </actor>
    <actor>
      <name>L. Fishburne</name>
      <role>Morpheus</role>
    </actor>
  </movie>
  <movie id="2">
    <title>Matrix</title>
    <year>1999</year>
    <actor>
      <name>Keanu Reeves</name>
      <role>The One</role>
    </actor>
  </movie>
  <movie id="3">
    <title>Signs</title>
    <year>2002</year>
    <actor>
      <name>Mel Gibson</name>
      <role>Graham Hess</role>
    </actor>
  </movie>
</moviedoc>
"""

#: Fig. 2 as an XSD (subset) document.
PAPER_EXAMPLE_XSD = """<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="moviedoc">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="movie" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="year" type="xs:gYear"/>
              <xs:element name="actor" minOccurs="0" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="name" type="xs:string"/>
                    <xs:element name="role" type="xs:string" minOccurs="0"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
"""


def paper_example_document() -> Document:
    from ..xmlkit.parser import parse

    return parse(PAPER_EXAMPLE_XML)


def paper_example_schema() -> Schema:
    return parse_schema(PAPER_EXAMPLE_XSD)


def paper_example_mapping() -> TypeMapping:
    """Table 3's mapping M."""
    return (
        TypeMapping()
        .add("MOVIE", "/moviedoc/movie")
        .add("TITLE", "/moviedoc/movie/title")
        .add("YEAR", "/moviedoc/movie/year")
        .add("ACTOR", "/moviedoc/movie/actor")
        .add("ACTORNAME", "/moviedoc/movie/actor/name")
        .add("ACTORROLE", "/moviedoc/movie/actor/role")
    )
