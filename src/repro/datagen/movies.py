"""Two-source movie corpus generator (Dataset 2).

The paper's Dataset 2 pairs 500 movies from IMDB with the same 500
movies from the German Film-Dienst catalog: same real-world objects,
different structure, different language, different date formats, no
scrubbing.  This generator renders one latent movie record into both
shapes (Table 6):

IMDB source (English)::

    <imdb>
      <movie gid="...">
        <year>1999</year>
        <title>The Matrix</title>
        <genre>Science Fiction</genre> ...
        <release-date><date>31 March 1999</date></release-date>
        <people>
          <actors><actor><name>...</name></actor>...</actors>
          <actresses><actress><name>...</name></actress>...</actresses>
          <producers><producer><name>...</name></producer>...</producers>
        </people>
      </movie>
    </imdb>

Film-Dienst source (German)::

    <filmdienst>
      <movie gid="...">
        <year>1999</year>
        <movie-title><title>Die deutsche Fassung</title></movie-title>
        <aka-title><title>The Matrix</title></aka-title>   (optional)
        <genres><genre>Science-Fiction</genre>...</genres>
        <premiere>17.06.1999</premiere>
        <people>
          <person><name>...</name></person>...
        </people>
      </movie>
    </filmdienst>

Cross-source evidence: the shared ``year``; the original title via the
optional ``aka-title``; person names (typo'd occasionally, sometimes in
"Last, First" order); genres that are cross-language synonyms — mostly
contradictory strings, occasionally similar by edit distance
("Science Fiction" / "Science-Fiction").  Dates are format-incompatible
on purpose.  This is exactly the harder scenario the paper predicts
poorer results for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..xmlkit.tree import Document, Element
from . import GOLD_ATTRIBUTE
from .typos import corrupt
from .wordpools import (
    FIRST_NAMES,
    LAST_NAMES,
    MONTH_NAMES_EN,
    MOVIE_GENRES_DE,
    MOVIE_GENRES_EN,
    MOVIE_TITLE_WORDS_DE,
    TITLE_PATTERNS,
    TITLE_WORDS,
)


#: The IMDB-shaped schema with the Table 6 flags: year (date, ME, not
#: SE), title (string, ME, SE), genre (string, not ME, not SE),
#: release-date/date (date, ME, SE), people/.../name (string, ME, SE).
IMDB_XSD = """<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="imdb">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="movie" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="year" type="xs:gYear" maxOccurs="unbounded"/>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="genre" type="xs:string" minOccurs="0"
                          maxOccurs="unbounded"/>
              <xs:element name="release-date">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="date" type="xs:date"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
              <xs:element name="people">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="actors">
                      <xs:complexType>
                        <xs:sequence>
                          <xs:element name="actor" minOccurs="0"
                                      maxOccurs="unbounded">
                            <xs:complexType>
                              <xs:sequence>
                                <xs:element name="name" type="xs:string"/>
                              </xs:sequence>
                            </xs:complexType>
                          </xs:element>
                        </xs:sequence>
                      </xs:complexType>
                    </xs:element>
                    <xs:element name="actresses">
                      <xs:complexType>
                        <xs:sequence>
                          <xs:element name="actress" minOccurs="0"
                                      maxOccurs="unbounded">
                            <xs:complexType>
                              <xs:sequence>
                                <xs:element name="name" type="xs:string"/>
                              </xs:sequence>
                            </xs:complexType>
                          </xs:element>
                        </xs:sequence>
                      </xs:complexType>
                    </xs:element>
                    <xs:element name="producers">
                      <xs:complexType>
                        <xs:sequence>
                          <xs:element name="producer" minOccurs="0"
                                      maxOccurs="unbounded">
                            <xs:complexType>
                              <xs:sequence>
                                <xs:element name="name" type="xs:string"/>
                              </xs:sequence>
                            </xs:complexType>
                          </xs:element>
                        </xs:sequence>
                      </xs:complexType>
                    </xs:element>
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

#: The Film-Dienst-shaped schema: year (date, ME, SE), movie-title/title
#: (string, ME, SE), aka-title/title (string, optional, not singleton),
#: genres/genre (string, not ME, not SE), premiere (date, not ME, SE),
#: people/person/name (string, ME, SE).
FILMDIENST_XSD = """<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="filmdienst">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="movie" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="year" type="xs:gYear"/>
              <xs:element name="movie-title">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="title" type="xs:string"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
              <xs:element name="aka-title" minOccurs="0" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="title" type="xs:string"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
              <xs:element name="genres" minOccurs="0">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="genre" type="xs:string" minOccurs="0"
                                maxOccurs="unbounded"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
              <xs:element name="premiere" type="xs:date" minOccurs="0"/>
              <xs:element name="people">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="person" minOccurs="0"
                                maxOccurs="unbounded">
                      <xs:complexType>
                        <xs:sequence>
                          <xs:element name="name" type="xs:string"/>
                        </xs:sequence>
                      </xs:complexType>
                    </xs:element>
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


def imdb_schema():
    from ..xmlkit.schema_parser import parse_schema

    return parse_schema(IMDB_XSD)


def filmdienst_schema():
    from ..xmlkit.schema_parser import parse_schema

    return parse_schema(FILMDIENST_XSD)


@dataclass
class MovieRecord:
    """One latent movie: the real-world object behind both sources."""

    gid: str
    title_en: str
    title_de: str
    year: int
    genre_indexes: list[int]
    release_day: int
    release_month: int
    premiere_day: int
    premiere_month: int
    actors: list[str]        # male cast
    actresses: list[str]     # female cast
    producers: list[str]


@dataclass
class MovieCorpus:
    """The latent records plus both renderings."""

    records: list[MovieRecord]
    imdb: Document
    filmdienst: Document


def _movie_title_en(rng: random.Random) -> str:
    pattern = rng.choice(TITLE_PATTERNS)
    a = rng.choice(TITLE_WORDS)
    b = rng.choice(TITLE_WORDS)
    while b == a:
        b = rng.choice(TITLE_WORDS)
    return pattern.format(a=a, b=b)


def _movie_title_de(rng: random.Random) -> str:
    a = rng.choice(MOVIE_TITLE_WORDS_DE)
    b = rng.choice(MOVIE_TITLE_WORDS_DE)
    while b == a:
        b = rng.choice(MOVIE_TITLE_WORDS_DE)
    return rng.choice((f"{a} und {b}", f"Die {a}", f"{a} der {b}", f"Im {a}"))


def _person(rng: random.Random) -> str:
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"


def generate_movies(count: int, seed: int = 13) -> list[MovieRecord]:
    """``count`` latent movie records."""
    rng = random.Random(seed)
    records: list[MovieRecord] = []
    for index in range(count):
        genre_count = rng.randint(1, 3)
        genre_indexes = rng.sample(range(len(MOVIE_GENRES_EN)), genre_count)
        release_month = rng.randint(1, 12)
        # German premiere is weeks or months after the US release.
        premiere_month = min(12, release_month + rng.randint(0, 3))
        records.append(
            MovieRecord(
                gid=f"mv{index}",
                title_en=_movie_title_en(rng),
                title_de=_movie_title_de(rng),
                year=rng.randint(1960, 2004),
                genre_indexes=genre_indexes,
                release_day=rng.randint(1, 28),
                release_month=release_month,
                premiere_day=rng.randint(1, 28),
                premiere_month=premiere_month,
                actors=[_person(rng) for _ in range(rng.randint(1, 3))],
                actresses=[_person(rng) for _ in range(rng.randint(1, 2))],
                producers=[_person(rng) for _ in range(rng.randint(1, 2))],
            )
        )
    return records


def imdb_element(record: MovieRecord) -> Element:
    """Render the IMDB shape (English)."""
    movie = Element("movie", {GOLD_ATTRIBUTE: record.gid})
    movie.append(Element("year", content=[str(record.year)]))
    movie.append(Element("title", content=[record.title_en]))
    for index in record.genre_indexes:
        movie.append(Element("genre", content=[MOVIE_GENRES_EN[index]]))
    release = Element("release-date")
    release.append(
        Element(
            "date",
            content=[
                f"{record.release_day} "
                f"{MONTH_NAMES_EN[record.release_month - 1]} {record.year}"
            ],
        )
    )
    movie.append(release)
    people = Element("people")
    actors = Element("actors")
    for name in record.actors:
        actor = Element("actor")
        actor.append(Element("name", content=[name]))
        actors.append(actor)
    people.append(actors)
    actresses = Element("actresses")
    for name in record.actresses:
        actress = Element("actress")
        actress.append(Element("name", content=[name]))
        actresses.append(actress)
    people.append(actresses)
    producers = Element("producers")
    for name in record.producers:
        producer = Element("producer")
        producer.append(Element("name", content=[name]))
        producers.append(producer)
    people.append(producers)
    movie.append(people)
    return movie


def filmdienst_element(
    record: MovieRecord,
    rng: random.Random,
    aka_probability: float = 0.75,
    name_typo_rate: float = 0.10,
    name_inversion_rate: float = 0.15,
) -> Element:
    """Render the Film-Dienst shape (German), with source noise."""
    movie = Element("movie", {GOLD_ATTRIBUTE: record.gid})
    movie.append(Element("year", content=[str(record.year)]))
    movie_title = Element("movie-title")
    movie_title.append(Element("title", content=[record.title_de]))
    movie.append(movie_title)
    if rng.random() < aka_probability:
        aka = Element("aka-title")
        aka_value = record.title_en
        if rng.random() < 0.15:
            aka_value = corrupt(aka_value, rng)
        aka.append(Element("title", content=[aka_value]))
        movie.append(aka)
    genres = Element("genres")
    for index in record.genre_indexes:
        genres.append(Element("genre", content=[MOVIE_GENRES_DE[index]]))
    movie.append(genres)
    movie.append(
        Element(
            "premiere",
            content=[
                f"{record.premiere_day:02d}.{record.premiere_month:02d}."
                f"{record.year}"
            ],
        )
    )
    people = Element("people")
    for name in record.actors + record.actresses + record.producers:
        rendered = name
        if rng.random() < name_inversion_rate:
            first, _, last = name.partition(" ")
            rendered = f"{last}, {first}"
        elif rng.random() < name_typo_rate:
            rendered = corrupt(name, rng)
        person = Element("person")
        person.append(Element("name", content=[rendered]))
        people.append(person)
    movie.append(people)
    return movie


def movie_corpus(count: int = 500, seed: int = 13) -> MovieCorpus:
    """Dataset 2: the same ``count`` movies in both source shapes."""
    records = generate_movies(count, seed)
    rng = random.Random(seed + 1)
    imdb_root = Element("imdb")
    fd_root = Element("filmdienst")
    for record in records:
        imdb_root.append(imdb_element(record))
        fd_root.append(filmdienst_element(record, rng))
    return MovieCorpus(
        records=records,
        imdb=Document(imdb_root),
        filmdienst=Document(fd_root),
    )


def movie_mapping():
    """The mapping *M* for Dataset 2 (Table 6 comparabilities)."""
    from ..framework.mapping import TypeMapping

    return (
        TypeMapping()
        .add("MOVIE", ["/imdb/movie", "/filmdienst/movie"])
        .add("YEAR", ["/imdb/movie/year", "/filmdienst/movie/year"])
        .add(
            "TITLE",
            [
                "/imdb/movie/title",
                "/filmdienst/movie/movie-title/title",
                "/filmdienst/movie/aka-title/title",
            ],
        )
        .add("GENRE", ["/imdb/movie/genre", "/filmdienst/movie/genres/genre"])
        .add(
            "RELEASE",
            ["/imdb/movie/release-date/date", "/filmdienst/movie/premiere"],
        )
        .add(
            "PERSONNAME",
            [
                "/imdb/movie/people/actors/actor/name",
                "/imdb/movie/people/actresses/actress/name",
                "/imdb/movie/people/producers/producer/name",
                "/filmdienst/movie/people/person/name",
            ],
        )
    )
