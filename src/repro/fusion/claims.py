"""Claim / source data model for machine-only fusion.

A *data item* is an ``(entity, attribute)`` pair — e.g. ``(book-123,
"author list")``.  A *claim* is a distinct value asserted for a data item by
one or more *sources*.  Fusion methods score claims; CrowdFusion then treats
each claim as a binary fact ("is this claimed value correct?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.exceptions import FusionError


@dataclass(frozen=True)
class Source:
    """A data source (web site, feed, provider)."""

    source_id: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.source_id:
            raise FusionError("source_id must be a non-empty string")


@dataclass(frozen=True)
class Claim:
    """A distinct value claimed for one data item.

    Attributes
    ----------
    claim_id:
        Unique identifier, assigned by the :class:`ClaimDatabase`.
    entity:
        The entity the claim is about (e.g. a book ISBN).
    attribute:
        The attribute being claimed (e.g. ``"author_list"``).
    value:
        The claimed value, compared for exact equality between sources.
    sources:
        The ids of the sources asserting exactly this value.
    """

    claim_id: str
    entity: str
    attribute: str
    value: str
    sources: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def data_item(self) -> Tuple[str, str]:
        """The ``(entity, attribute)`` pair this claim belongs to."""
        return (self.entity, self.attribute)

    @property
    def support(self) -> int:
        """Number of sources asserting this claim."""
        return len(self.sources)


class _ReadIndex(NamedTuple):
    """Every read of a :class:`ClaimDatabase`, materialised in one pass."""

    claims: Tuple[Claim, ...]
    by_entity: Dict[str, Tuple[Claim, ...]]
    by_source: Dict[str, Tuple[Claim, ...]]


class ClaimDatabase:
    """A table of source observations, grouped into distinct claims.

    Observations are added one at a time; the database deduplicates values
    per data item and tracks which sources support each distinct value.

    Reads are served from an index that holds the :meth:`claims` tuple and
    the claims of each entity and of each source.  The first read after a
    write builds it in one pass over the observations, O(observations).
    Later reads share its tuples, so :meth:`claims`, :meth:`claims_for` and
    :meth:`observations_of` cost O(1) and :meth:`entities` O(entities); a
    fusion method that visits every entity's claims in every iteration pays
    O(claims) per iteration.  A write makes the index stale only when it
    changes a claim: a new ``(entity, attribute, value)`` triple, or a new
    source for an existing one.  Repeating an observation and
    :meth:`add_source` keep it.  So a burst of writes followed by reads
    builds the index once, while single writes interleaved with reads
    rebuild it after every write.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Source] = {}
        # (entity, attribute, value) -> source ids, in first-seen order of the triples
        self._observations: Dict[Tuple[str, str, str], Set[str]] = {}
        # None until the first read, and again after a write that changes a claim
        self._index: Optional[_ReadIndex] = None

    # -- building -----------------------------------------------------------------

    def add_source(self, source_id: str, name: str = "") -> Source:
        """Register a source (idempotent)."""
        if source_id not in self._sources:
            self._sources[source_id] = Source(source_id=source_id, name=name or source_id)
        return self._sources[source_id]

    def add_observation(
        self, source_id: str, entity: str, attribute: str, value: str
    ) -> None:
        """Record that ``source_id`` claims ``value`` for ``(entity, attribute)``."""
        if not entity or not attribute:
            raise FusionError("entity and attribute must be non-empty")
        if not value:
            raise FusionError("claimed value must be non-empty")
        self.add_source(source_id)
        supporters = self._observations.setdefault((entity, attribute, value), set())
        if source_id not in supporters:
            supporters.add(source_id)
            self._index = None

    def _read_index(self) -> _ReadIndex:
        if self._index is None:
            claims: List[Claim] = []
            by_entity: Dict[str, List[Claim]] = {}
            by_source: Dict[str, List[Claim]] = {}
            for index, ((entity, attribute, value), supporters) in enumerate(
                self._observations.items(), start=1
            ):
                claim = Claim(
                    claim_id=f"c{index}",
                    entity=entity,
                    attribute=attribute,
                    value=value,
                    sources=frozenset(supporters),
                )
                claims.append(claim)
                by_entity.setdefault(entity, []).append(claim)
                for source_id in supporters:
                    by_source.setdefault(source_id, []).append(claim)
            self._index = _ReadIndex(
                claims=tuple(claims),
                by_entity={entity: tuple(group) for entity, group in by_entity.items()},
                by_source={source: tuple(group) for source, group in by_source.items()},
            )
        return self._index

    # -- inspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Claim]:
        return iter(self.claims())

    @property
    def num_sources(self) -> int:
        """Number of registered sources."""
        return len(self._sources)

    def sources(self) -> Tuple[Source, ...]:
        """Registered sources, in registration order."""
        return tuple(self._sources.values())

    def claims(self) -> Tuple[Claim, ...]:
        """Distinct claims in insertion order, with generated ids ``c1, c2, ...``."""
        return self._read_index().claims

    def data_items(self) -> Tuple[Tuple[str, str], ...]:
        """Distinct ``(entity, attribute)`` pairs, in first-seen order."""
        return tuple(
            dict.fromkeys((entity, attribute) for entity, attribute, _value in self._observations)
        )

    def claims_for(self, entity: str, attribute: Optional[str] = None) -> Tuple[Claim, ...]:
        """Claims about one entity (optionally restricted to one attribute)."""
        claims = self._read_index().by_entity.get(entity, ())
        if attribute is None:
            return claims
        return tuple(claim for claim in claims if claim.attribute == attribute)

    def observations_of(self, source_id: str) -> Tuple[Claim, ...]:
        """Every claim asserted by ``source_id``."""
        if source_id not in self._sources:
            raise FusionError(f"unknown source {source_id!r}")
        return self._read_index().by_source.get(source_id, ())

    def entities(self) -> Tuple[str, ...]:
        """Distinct entities, in first-seen order."""
        return tuple(self._read_index().by_entity)

    @classmethod
    def from_observations(
        cls, observations: Iterable[Tuple[str, str, str, str]]
    ) -> "ClaimDatabase":
        """Build a database from ``(source_id, entity, attribute, value)`` tuples."""
        database = cls()
        for source_id, entity, attribute, value in observations:
            database.add_observation(source_id, entity, attribute, value)
        return database
