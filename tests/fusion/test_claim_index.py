"""The claim database's read index against the full-scan reads it replaced.

``ClaimDatabase`` answers every read from an index that the first read after
a write builds.  :class:`LoopClaimDatabase` answers the same reads by
scanning every observation on every call, as the database did before it had
an index, and is the oracle here.  The tests check that

* every read agrees with the oracle after any mix of writes and reads;
* the four fusion methods and ``build_problems`` give bit-identical results
  on the oracle and on the indexed database;
* set-up constructs each claim exactly once, however often the fusion
  methods read the database.  This is a count, so nothing is timed.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import book
from repro.datasets.book import BookCorpusConfig, generate_book_corpus
from repro.evaluation.experiment import build_problems
from repro.exceptions import FusionError
from repro.fusion import BayesianVote, MajorityVote, ModifiedCRH, TruthFinder
from repro.fusion.claims import Claim, ClaimDatabase

METHODS = [MajorityVote(), ModifiedCRH(), BayesianVote(), TruthFinder()]


class LoopClaimDatabase(ClaimDatabase):
    """Every read recomputed by a full scan of the observations."""

    def claims(self):
        result = []
        for index, (entity, attribute, value) in enumerate(self._observations, start=1):
            result.append(
                Claim(
                    claim_id=f"c{index}",
                    entity=entity,
                    attribute=attribute,
                    value=value,
                    sources=frozenset(self._observations[(entity, attribute, value)]),
                )
            )
        return tuple(result)

    def data_items(self):
        seen = []
        for entity, attribute, _value in self._observations:
            if (entity, attribute) not in seen:
                seen.append((entity, attribute))
        return tuple(seen)

    def claims_for(self, entity, attribute=None):
        return tuple(
            claim
            for claim in self.claims()
            if claim.entity == entity and (attribute is None or claim.attribute == attribute)
        )

    def observations_of(self, source_id):
        if source_id not in self._sources:
            raise FusionError(f"unknown source {source_id!r}")
        return tuple(claim for claim in self.claims() if source_id in claim.sources)

    def entities(self):
        seen = []
        for entity, _attribute, _value in self._observations:
            if entity not in seen:
                seen.append(entity)
        return tuple(seen)


# Small alphabets, so that repeated observations, new sources on existing
# triples, new entities and sources without claims all occur.  Entity ids
# are drawn in any order, so first-seen order differs from sorted order.
OBSERVING_SOURCES = ("s1", "s2", "s3")
SOURCES = OBSERVING_SOURCES + ("s4", "s5")
ENTITIES = ("e2", "e1", "e3")
ATTRIBUTES = ("a", "b")
VALUES = ("x", "y")


READ_KEYS = (
    [("claims",), ("iter",), ("len",), ("entities",), ("data_items",), ("sources",)]
    + [("claims_for", entity) for entity in ENTITIES + ("no-such-entity",)]
    + [
        ("claims_for", entity, attribute)
        for entity in ENTITIES + ("no-such-entity",)
        for attribute in ATTRIBUTES
    ]
    + [("observations_of", source_id) for source_id in SOURCES + ("never-registered",)]
)


def read(database, key):
    """One read of ``database``; a refused read returns its error message."""
    name, *args = key
    if name == "iter":
        return tuple(database)
    if name == "len":
        return len(database)
    try:
        return getattr(database, name)(*args)
    except FusionError as error:
        return f"FusionError: {error}"


def reads(database):
    return {key: read(database, key) for key in READ_KEYS}


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add_observation"),
            st.sampled_from(OBSERVING_SOURCES),
            st.sampled_from(ENTITIES),
            st.sampled_from(ATTRIBUTES),
            st.sampled_from(VALUES),
        ),
        st.tuples(st.just("add_source"), st.sampled_from(SOURCES)),
        st.tuples(st.just("read"), st.sampled_from(READ_KEYS)),
    ),
    max_size=40,
)


class TestReadsMatchTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(operations)
    def test_every_read_after_every_step(self, steps):
        indexed, oracle = ClaimDatabase(), LoopClaimDatabase()
        for step in steps:
            if step[0] == "read":
                assert read(indexed, step[1]) == read(oracle, step[1])
            else:
                for database in (indexed, oracle):
                    getattr(database, step[0])(*step[1:])
            assert reads(indexed) == reads(oracle)


def problems_digest(problems):
    """Digest of the entity order, fact ids, support and probabilities of each prior."""
    digest = hashlib.sha256()
    for problem in problems:
        masks, probabilities = problem.prior.support_arrays()
        digest.update(problem.entity.encode())
        digest.update("|".join(problem.prior.fact_ids).encode())
        digest.update(masks.tobytes())
        digest.update(probabilities.tobytes())
        digest.update(repr(sorted(problem.gold.items())).encode())
        digest.update(repr(sorted(problem.difficulties.items())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [3, 11])
def test_fusion_and_problems_match_the_oracle(seed, monkeypatch):
    config = BookCorpusConfig(num_books=30, num_sources=18, seed=seed)
    indexed = generate_book_corpus(config)
    monkeypatch.setattr(book, "ClaimDatabase", LoopClaimDatabase)
    oracle = generate_book_corpus(config)
    assert type(oracle.database) is LoopClaimDatabase
    for method in METHODS:
        expected = method.run(oracle.database)
        actual = method.run(indexed.database)
        assert list(actual.confidences.items()) == list(expected.confidences.items())
        assert list(actual.source_weights.items()) == list(expected.source_weights.items())
        assert actual.iterations == expected.iterations
        built = [
            build_problems(
                corpus.database,
                corpus.gold,
                method,
                difficulties=corpus.difficulties,
                max_facts_per_entity=11,
            )
            for corpus in (indexed, oracle)
        ]
        assert problems_digest(built[0]) == problems_digest(built[1])


@pytest.mark.parametrize("num_books", [50, 200])
@pytest.mark.parametrize("method", METHODS, ids=lambda method: method.name)
def test_setup_constructs_each_claim_once(method, num_books, monkeypatch):
    """Corpus generation plus prior building constructs ``len(database)`` claims.

    A read that rebuilt the claims on every call made this count grow with
    the square of the corpus: 13,936 for MajorityVote and 83,348 for
    ModifiedCRH on 50 books (268 claims), 213,110 and 3,195,595 on 200
    books (1,055 claims).
    """
    constructed = []
    original_init = Claim.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(None)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Claim, "__init__", counting_init)
    corpus = generate_book_corpus(BookCorpusConfig(num_books=num_books))
    build_problems(corpus.database, corpus.gold, method, difficulties=corpus.difficulties)
    assert len(constructed) == len(corpus.database)
