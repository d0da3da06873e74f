"""The merge against the 5.0 per-row merge (``tests/core/merge_oracle.py``).

``answer_likelihood_array`` and ``merge_answers`` gather their likelihoods
from ``bit_column`` columns; ``RefinementSession.merge`` gathers them from
the engine's cached ``EntropyEngine.bits``.  Both must reproduce the 5.0
formula bit for bit (``np.array_equal``, not a tolerance) on either mask
layout: an ``int64`` column up to 63 facts, uint64 bit planes beyond.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.crowd import (
    CrowdModel,
    DifficultyAdjustedCrowdModel,
    PerFactChannelModel,
    RecalibratedChannelModel,
)
from repro.core.distribution import JointDistribution
from repro.core.entropy import bit_column
from repro.core.merging import answer_likelihood_array, merge_answers
from repro.core.selection import RefinementSession
from repro.core.selection.engine import EntropyEngine
from repro.exceptions import InvalidDistributionError, InvalidFactError, SelectionError

from tests.core.merge_oracle import oracle_likelihood_array, oracle_merge

UNIFORM_ACCURACIES = (0.5, 0.55, 0.7, 0.8, 0.9, 0.99, 1.0)


@st.composite
def supports(draw):
    """A random sparse distribution, narrow (int64 masks) or wide (bit planes)."""
    num_facts = draw(st.one_of(st.integers(1, 12), st.integers(64, 140)))
    rows = draw(st.integers(1, min(48, 1 << num_facts)))
    masks = draw(
        st.lists(
            st.integers(0, (1 << num_facts) - 1),
            min_size=rows,
            max_size=rows,
            unique=True,
        )
    )
    masses = draw(
        st.lists(st.floats(0.05, 5.0), min_size=rows, max_size=rows)
    )
    fact_ids = tuple(f"f{index}" for index in range(num_facts))
    return JointDistribution(fact_ids, dict(zip(masks, masses)))


#: The oracle's uniform channel packs the answers into one ``int64`` mask,
#: so it takes at most 63 of them.
ORACLE_MAX_ANSWERS = 63


@st.composite
def answer_sets(draw, distribution, max_size=ORACLE_MAX_ANSWERS):
    """From one answered fact to every fact (at most ``max_size``), in a
    random order."""
    fact_ids = distribution.fact_ids
    answered = draw(
        st.lists(
            st.sampled_from(fact_ids),
            min_size=1,
            max_size=min(max_size, len(fact_ids)),
            unique=True,
        )
    )
    judgments = draw(
        st.lists(st.booleans(), min_size=len(answered), max_size=len(answered))
    )
    return AnswerSet.from_mapping(dict(zip(answered, judgments)))


@st.composite
def heterogeneous_models(draw, distribution):
    """A per-fact, difficulty-adjusted or re-calibrated channel over the facts."""
    fact_ids = distribution.fact_ids
    accuracy = st.floats(0.5, 1.0)
    chosen = draw(st.lists(st.sampled_from(fact_ids), min_size=1, unique=True))
    kind = draw(st.sampled_from(("per_fact", "difficulty", "recalibrated")))
    if kind == "per_fact":
        return PerFactChannelModel(
            draw(accuracy), {fact_id: draw(accuracy) for fact_id in chosen}
        )
    if kind == "difficulty":
        return DifficultyAdjustedCrowdModel(
            draw(accuracy), {fact_id: draw(st.floats(0.0, 0.5)) for fact_id in chosen}
        )
    base = draw(
        st.one_of(
            st.sampled_from(UNIFORM_ACCURACIES).map(CrowdModel),
            st.builds(PerFactChannelModel, accuracy, st.just({fact_ids[0]: 0.65})),
        )
    )
    return RecalibratedChannelModel(
        base, {fact_id: draw(accuracy) for fact_id in chosen}
    )


def channels(distribution):
    return st.one_of(
        st.sampled_from(UNIFORM_ACCURACIES).map(CrowdModel),
        heterogeneous_models(distribution),
    )


class TestLikelihoodsEqualTheOracle:
    @given(st.data(), st.sampled_from(UNIFORM_ACCURACIES))
    @settings(max_examples=150, deadline=None)
    def test_uniform_channel(self, data, accuracy):
        distribution = data.draw(supports())
        answers = data.draw(answer_sets(distribution))
        crowd = CrowdModel(accuracy)
        assert np.array_equal(
            answer_likelihood_array(distribution, answers, crowd),
            oracle_likelihood_array(distribution, answers, crowd),
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_heterogeneous_channels(self, data):
        distribution = data.draw(supports())
        answers = data.draw(answer_sets(distribution, max_size=len(distribution.fact_ids)))
        crowd = data.draw(heterogeneous_models(distribution))
        assert np.array_equal(
            answer_likelihood_array(distribution, answers, crowd),
            oracle_likelihood_array(distribution, answers, crowd),
        )

    @pytest.mark.parametrize("accuracy", UNIFORM_ACCURACIES)
    def test_more_answers_than_an_int64_mask_holds(self, accuracy):
        # 300 answers: past the oracle's 63 (it raises OverflowError), and
        # past what a uint8 disagreement count holds.  The reference is the
        # same per-row powers over exact int64 disagreement counts.
        rng = np.random.default_rng(5)
        fact_ids = tuple(f"f{index}" for index in range(300))
        masks = {int.from_bytes(rng.bytes(38), "little") >> 4 for _ in range(16)}
        distribution = JointDistribution(fact_ids, {mask: 1.0 for mask in masks})
        judgments = {fact_id: bool(rng.integers(0, 2)) for fact_id in fact_ids}
        planes = distribution.support_arrays()[0]
        diff = sum(
            (bit_column(planes, distribution.position(fact_id)) != judgment).astype(
                np.int64
            )
            for fact_id, judgment in judgments.items()
        )
        same = len(judgments) - diff
        expected = (accuracy ** same) * ((1.0 - accuracy) ** diff)
        likelihoods = answer_likelihood_array(
            distribution, AnswerSet.from_mapping(judgments), CrowdModel(accuracy)
        )
        assert np.array_equal(likelihoods, expected)


class TestSessionMergesEqualTheOracle:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rounds_of_session_merges(self, data):
        distribution = data.draw(supports())
        crowd = data.draw(channels(distribution))
        session = RefinementSession(distribution, crowd)
        expected = distribution.support_arrays()[1]
        for _ in range(data.draw(st.integers(1, 4))):
            answers = data.draw(answer_sets(distribution))
            try:
                expected = oracle_merge(expected, distribution, answers, crowd)
            except SelectionError:
                # Evidence a perfect crowd rules out everywhere.
                with pytest.raises(SelectionError, match="all probability mass"):
                    session.merge(answers)
                break
            session.merge(answers)
            assert np.array_equal(session.engine.probabilities, expected)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_session_merges_equal_merge_answers(self, data):
        # Accuracies below 1 keep every row's mass positive: merge_answers
        # drops zero-mass rows, so its normalising sum would add fewer terms.
        distribution = data.draw(supports())
        crowd = data.draw(
            st.one_of(
                st.sampled_from(UNIFORM_ACCURACIES[:-1]).map(CrowdModel),
                st.builds(
                    PerFactChannelModel,
                    st.floats(0.5, 0.99),
                    st.just({distribution.fact_ids[0]: 0.95}),
                ),
            )
        )
        session = RefinementSession(distribution, crowd)
        posterior = distribution
        for _ in range(data.draw(st.integers(1, 4))):
            answers = data.draw(answer_sets(distribution))
            session.merge(answers)
            posterior = merge_answers(posterior, answers, crowd)
            masks, probabilities = posterior.support_arrays()
            assert np.array_equal(masks, session.engine.support_masks)
            assert np.array_equal(probabilities, session.engine.probabilities)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cached_columns_survive_merges(self, data):
        distribution = data.draw(supports())
        crowd = data.draw(channels(distribution))
        session = RefinementSession(distribution, crowd)
        masks = distribution.support_arrays()[0]
        answered = set()
        for _ in range(data.draw(st.integers(1, 3))):
            answers = data.draw(answer_sets(distribution))
            try:
                session.merge(answers)
            except SelectionError:
                break
            answered.update(answers)
        for fact_id in answered:
            column = session.engine.bits(fact_id)
            assert np.array_equal(
                column, bit_column(masks, distribution.position(fact_id))
            )
            assert not column.flags.writeable


class TestErrorsUnchanged:
    def distribution(self):
        return JointDistribution.independent({"a": 0.3, "b": 0.6})

    @pytest.mark.parametrize("crowd", [CrowdModel(0.8), PerFactChannelModel(0.8, {"a": 0.7})])
    def test_an_unknown_fact_raises_and_changes_nothing(self, crowd):
        distribution = self.distribution()
        answers = AnswerSet.from_mapping({"a": True, "zzz": False})
        with pytest.raises(InvalidFactError):
            answer_likelihood_array(distribution, answers, crowd)
        session = RefinementSession(distribution, crowd)
        before = session.engine.probabilities.copy()
        with pytest.raises(InvalidFactError):
            session.merge(answers)
        assert np.array_equal(session.engine.probabilities, before)
        assert session.rounds_merged == 0

    def test_an_empty_answer_set_raises(self):
        class _Empty:
            def judgments(self):
                return {}

        distribution = self.distribution()
        with pytest.raises(SelectionError, match="empty answer set"):
            answer_likelihood_array(distribution, _Empty(), CrowdModel(0.8))
        with pytest.raises(SelectionError, match="empty answer set"):
            RefinementSession(distribution, CrowdModel(0.8)).merge(_Empty())

    def test_cached_columns_are_read_only(self):
        engine = EntropyEngine(self.distribution(), CrowdModel(0.8))
        with pytest.raises(ValueError):
            engine.bits("a")[0] = 1

    @pytest.mark.parametrize(
        "bad, refused",
        [(np.nan, True), (-1.0, True), (-np.inf, True), (-0.0, False), (np.inf, False)],
    )
    def test_the_weight_check(self, bad, refused):
        distribution = self.distribution()
        weights = np.ones(distribution.support_size)
        weights[0] = bad
        engine = EntropyEngine(distribution, CrowdModel(0.8))
        with np.errstate(invalid="ignore"):
            if refused:
                with pytest.raises(SelectionError, match="non-negative"):
                    engine.reweight(weights)
                with pytest.raises(InvalidDistributionError, match="non-negative"):
                    distribution.reweight_array(weights)
            else:
                engine.reweight(weights)
                distribution.reweight_array(weights)

    def test_evidence_that_removes_all_mass_raises(self):
        distribution = JointDistribution(("a", "b"), {0b00: 0.5, 0b11: 0.5})
        session = RefinementSession(distribution, CrowdModel(1.0))
        with pytest.raises(SelectionError, match="all probability mass"):
            session.merge(AnswerSet.from_mapping({"a": True, "b": False}))
        assert session.rounds_merged == 0
