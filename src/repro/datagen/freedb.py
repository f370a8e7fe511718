"""FreeDB-like CD corpus generator (Datasets 1 and 3).

The paper extracts CD objects from freedb.de; the service is defunct
and the dump is not distributable, so this generator produces a corpus
with the same element inventory and statistical quirks the paper's
evaluation depends on (Table 5 and the Fig. 5 discussion):

* ``disc/did`` — automatically generated ids where many non-duplicate
  CDs differ by at most one character (the k=1 precision effect): ids
  are 8 hex chars, allocated in blocks sharing a 7-char prefix;
* ``disc/artist``, ``disc/title`` — mandatory, occasionally repeated
  (collaborations / title variants), so inference marks them not-SE;
* ``disc/genre`` — optional singleton with low identifying power;
* ``disc/year`` — date-typed singleton, 1960–2005;
* ``disc/cdextra`` — optional, repeatable free-text notes;
* ``disc/tracks/title`` — track titles; a ``dummy_fraction`` of CDs
  carries placeholder titles ("Track 01", ...) and anonymous artist
  metadata, FreeDB's hallmark dirt, which collapses precision once
  track titles join the description (k=8 in Fig. 5);
* for Dataset 3, planted *natural* duplicates: exact re-submissions
  and fuzzy near-duplicates of earlier discs.

Every disc carries a ``gid`` attribute as gold standard (attributes
never reach object descriptions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..xmlkit.tree import Document, Element
from . import GOLD_ATTRIBUTE
from .typos import corrupt
from .wordpools import (
    BAND_NOUNS,
    BAND_WORDS,
    CD_EXTRA_NOTES,
    FIRST_NAMES,
    GENRES,
    LAST_NAMES,
    TITLE_PATTERNS,
    TITLE_WORDS,
)

#: CDs per shared did prefix block (pairwise edit distance 1 inside a
#: block -> ned 1/8 = 0.125 < 0.15, i.e. "similar" at paper settings).
_DID_BLOCK = 4

#: The CD schema with exactly the Table 5 declarations:
#: did (string, ME, SE), artist (string, ME, not SE),
#: title (string, ME, not SE), genre (string, not ME, SE),
#: year (date, ME, SE), cdextra (string, not ME, not SE),
#: tracks (complex, ME, SE), tracks/title (string, ME, not SE).
CD_XSD = """<?xml version="1.0" encoding="UTF-8"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="freedb">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="disc" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="did" type="xs:string"/>
              <xs:element name="artist" type="xs:string" maxOccurs="unbounded"/>
              <xs:element name="title" type="xs:string" maxOccurs="unbounded"/>
              <xs:element name="genre" type="xs:string" minOccurs="0"/>
              <xs:element name="year" type="xs:gYear"/>
              <xs:element name="cdextra" type="xs:string" minOccurs="0"
                          maxOccurs="unbounded"/>
              <xs:element name="tracks">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="title" type="xs:string"
                                maxOccurs="unbounded"/>
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


def cd_schema():
    """Parse :data:`CD_XSD` into a schema object."""
    from ..xmlkit.schema_parser import parse_schema

    return parse_schema(CD_XSD)


@dataclass
class CDRecord:
    """One compact disc record."""

    gid: str
    did: str
    artists: list[str]
    titles: list[str]
    genre: str | None
    year: int
    extras: list[str]
    tracks: list[str]
    is_dummy: bool = False


@dataclass
class CDCorpus:
    """A generated corpus plus its gold standard.

    Records sharing a ``gid`` are duplicates of each other; the
    ``duplicated_gids`` set lists the gids that occur more than once.
    """

    records: list[CDRecord]
    duplicated_gids: set[str] = field(default_factory=set)

    def to_document(self) -> Document:
        root = Element("freedb")
        for record in self.records:
            root.append(cd_to_element(record))
        return Document(root)


def _artist_name(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    return f"The {rng.choice(BAND_WORDS)} {rng.choice(BAND_NOUNS)}"


def _cd_title(rng: random.Random) -> str:
    pattern = rng.choice(TITLE_PATTERNS)
    a = rng.choice(TITLE_WORDS)
    b = rng.choice(TITLE_WORDS)
    while b == a:
        b = rng.choice(TITLE_WORDS)
    return pattern.format(a=a, b=b)


def _track_titles(rng: random.Random) -> list[str]:
    count = rng.randint(4, 12)
    titles = []
    for _ in range(count):
        title = _cd_title(rng)
        while title in titles:
            title = _cd_title(rng)
        titles.append(title)
    return titles


def _dummy_tracks(rng: random.Random) -> list[str]:
    count = rng.randint(10, 20)
    return [f"Track {index:02d}" for index in range(1, count + 1)]


def generate_cds(
    count: int,
    seed: int = 7,
    dummy_fraction: float = 0.20,
    gid_prefix: str = "cd",
) -> list[CDRecord]:
    """Generate ``count`` distinct (non-duplicate) CD records."""
    rng = random.Random(seed)
    records: list[CDRecord] = []
    for index in range(count):
        block, member = divmod(index, _DID_BLOCK)
        # Knuth-hash the block so different blocks differ in many hex
        # digits; members within a block differ only in the last digit
        # (edit distance 1 — the near-collision effect).
        prefix = (block * 2654435761) % 0x10000000
        did = f"{prefix:07x}{member:01x}"
        is_dummy = rng.random() < dummy_fraction and index > 0
        if is_dummy:
            artists = [rng.choice(("Unknown Artist", "Various Artists"))]
            titles = [f"New CD {rng.randint(1, 999)}"]
            genre = "Misc" if rng.random() < 0.8 else None
            extras: list[str] = []
            tracks = _dummy_tracks(rng)
        else:
            artists = [_artist_name(rng)]
            if rng.random() < 0.06:
                artists.append(_artist_name(rng))
            titles = [_cd_title(rng)]
            if rng.random() < 0.04:
                titles.append(_cd_title(rng))
            genre = rng.choice(GENRES) if rng.random() > 0.15 else None
            # cdextra is free text in FreeDB (the EXTD field): varied
            # per-disc comments, effectively unique.
            extras = (
                [
                    f"{rng.choice(TITLE_WORDS)} {rng.choice(BAND_NOUNS).lower()} "
                    f"sessions - {note.lower()}, no. {rng.randint(100, 99999)}"
                    for note in rng.sample(CD_EXTRA_NOTES, rng.randint(1, 2))
                ]
                if rng.random() < 0.4
                else []
            )
            tracks = _track_titles(rng)
        records.append(
            CDRecord(
                gid=f"{gid_prefix}{index}",
                did=did,
                artists=artists,
                titles=titles,
                genre=genre,
                year=rng.randint(1960, 2005),
                extras=extras,
                tracks=tracks,
                is_dummy=is_dummy,
            )
        )
    # The first record fixes the child order for schema inference:
    # did, artist, title, genre, year, cdextra, tracks (Table 5).
    first = records[0]
    if first.genre is None:
        first.genre = GENRES[0]
    if not first.extras:
        first.extras = [CD_EXTRA_NOTES[0]]
    return records


def cd_to_element(record: CDRecord) -> Element:
    """Render a record as a ``<disc>`` element (Table 5 structure)."""
    disc = Element("disc", {GOLD_ATTRIBUTE: record.gid})
    disc.append(Element("did", content=[record.did]))
    for artist in record.artists:
        disc.append(Element("artist", content=[artist]))
    for title in record.titles:
        disc.append(Element("title", content=[title]))
    if record.genre is not None:
        disc.append(Element("genre", content=[record.genre]))
    disc.append(Element("year", content=[str(record.year)]))
    for extra in record.extras:
        disc.append(Element("cdextra", content=[extra]))
    tracks = Element("tracks")
    for track in record.tracks:
        tracks.append(Element("title", content=[track]))
    disc.append(tracks)
    return disc


def freedb_corpus(count: int = 500, seed: int = 7) -> CDCorpus:
    """Dataset 1's base corpus: ``count`` non-duplicate CDs."""
    return CDCorpus(records=generate_cds(count, seed))


def _fuzzy_copy(record: CDRecord, gid: str, rng: random.Random) -> CDRecord:
    """A re-submission of the same disc with light errors."""
    copy = CDRecord(
        gid=gid,
        did=record.did,
        artists=list(record.artists),
        titles=list(record.titles),
        genre=record.genre,
        year=record.year,
        extras=list(record.extras),
        tracks=list(record.tracks),
        is_dummy=record.is_dummy,
    )
    if rng.random() < 0.6:
        copy.did = corrupt(copy.did, rng)
    if rng.random() < 0.5:
        copy.titles[0] = corrupt(copy.titles[0], rng)
    if rng.random() < 0.4:
        copy.artists[0] = corrupt(copy.artists[0], rng)
    if copy.extras and rng.random() < 0.5:
        copy.extras = []
    for index in range(len(copy.tracks)):
        if rng.random() < 0.15:
            copy.tracks[index] = corrupt(copy.tracks[index], rng)
    return copy


def freedb_large_corpus(
    count: int = 10_000,
    seed: int = 11,
    exact_duplicate_pairs: int = 27,
    fuzzy_duplicate_pairs: int = 30,
    dummy_fraction: float = 0.10,
) -> CDCorpus:
    """Dataset 3: a large "random FreeDB extract".

    Real FreeDB contains natural duplicates (re-submissions of the same
    disc) and lots of placeholder metadata; both are planted here with
    known gold pairs.  Defaults mirror the paper's findings: 27 exact
    duplicate pairs among the 252 pairs found at θ_cand = 0.55.
    """
    planted = exact_duplicate_pairs + fuzzy_duplicate_pairs
    if planted * 2 > count:
        raise ValueError("corpus too small for the requested duplicates")
    rng = random.Random(seed)
    base = generate_cds(count - planted, seed, dummy_fraction=dummy_fraction)
    # Duplicate targets: non-dummy discs, spread deterministically.
    targets = [record for record in base if not record.is_dummy]
    rng.shuffle(targets)
    duplicated: set[str] = set()
    extra_records: list[CDRecord] = []
    for index in range(exact_duplicate_pairs):
        original = targets[index]
        extra_records.append(  # exact re-submission: a verbatim copy
            CDRecord(
                gid=original.gid,
                did=original.did,
                artists=list(original.artists),
                titles=list(original.titles),
                genre=original.genre,
                year=original.year,
                extras=list(original.extras),
                tracks=list(original.tracks),
            )
        )
        duplicated.add(original.gid)
    for index in range(fuzzy_duplicate_pairs):
        original = targets[exact_duplicate_pairs + index]
        extra_records.append(_fuzzy_copy(original, original.gid, rng))
        duplicated.add(original.gid)
    records = base + extra_records
    rng.shuffle(records)
    return CDCorpus(records=records, duplicated_gids=duplicated)
