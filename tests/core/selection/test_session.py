"""Persistent refinement sessions vs. the fresh-engine-per-round path.

The session's contract is *pure amortisation*: reusing one engine (and
reweighting its probability vector in place) across the rounds of a
multi-round run must select exactly the task sets — with objectives within
1e-9 — that rebuilding a fresh engine from the materialised posterior every
round selects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.merging import merge_answers
from repro.core.query import Query
from repro.core.selection import (
    EntropyEngine,
    GreedySelector,
    LazyGreedySelector,
    PruningGreedySelector,
    QueryGreedySelector,
    RandomSelector,
    RefinementSession,
    SessionPool,
    get_selector,
)
from repro.exceptions import SelectionError


@st.composite
def coarse_distributions(draw, max_facts=5):
    """Random sparse joints with coarse rational masses (see engine tests)."""
    n = draw(st.integers(min_value=2, max_value=max_facts))
    fact_ids = tuple(f"f{i}" for i in range(n))
    size = 1 << n
    support = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=2,
            max_size=size,
            unique=True,
        )
    )
    masses = draw(
        st.lists(
            st.integers(min_value=1, max_value=40),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return JointDistribution(fact_ids, dict(zip(support, map(float, masses))))


accuracies = st.sampled_from([0.6, 0.75, 0.8, 0.9])


def oracle(gold):
    """Deterministic answer provider: always the gold label."""

    def collect(task_ids):
        return AnswerSet.from_mapping({fact_id: gold[fact_id] for fact_id in task_ids})

    return collect


def run_fresh_path(distribution, crowd, selector, collect, budget, k):
    """The pre-session behaviour: a fresh selector/engine pass per round."""
    current = distribution
    task_sets = []
    objectives = []
    remaining = budget
    while remaining > 0:
        size = min(k, remaining, current.num_facts)
        selection = selector.select(current, crowd, size)
        if not selection.task_ids:
            break
        task_sets.append(selection.task_ids)
        objectives.append(selection.objective)
        current = merge_answers(current, collect(selection.task_ids), crowd)
        remaining -= len(selection.task_ids)
    return task_sets, objectives, current


class TestSessionEquivalence:
    @given(
        coarse_distributions(),
        accuracies,
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["greedy", "greedy_lazy", "greedy_prune_pre"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_session_rounds_match_fresh_engine_rounds(self, dist, accuracy, k, name):
        crowd = CrowdModel(accuracy)
        gold = {fact_id: index % 2 == 0 for index, fact_id in enumerate(dist.fact_ids)}
        budget = 3 * k

        fresh_sets, fresh_objectives, fresh_final = run_fresh_path(
            dist, crowd, get_selector(name), oracle(gold), budget, k
        )
        engine = CrowdFusionEngine(
            get_selector(name), crowd, budget=budget, tasks_per_round=k
        )
        result = engine.run(dist, oracle(gold))

        assert [record.task_ids for record in result.rounds] == fresh_sets
        for record, objective in zip(result.rounds, fresh_objectives):
            assert record.selection_objective == pytest.approx(objective, abs=1e-9)
        assert result.final_distribution.allclose(fresh_final, tolerance=1e-9)

    @given(coarse_distributions(max_facts=4), st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_session_equivalence_under_heterogeneous_channels(self, dist, k):
        channel = PerFactChannelModel(
            0.8, {fact_id: 0.6 + 0.05 * index for index, fact_id in enumerate(dist.fact_ids)}
        )
        gold = {fact_id: True for fact_id in dist.fact_ids}
        budget = 2 * k

        fresh_sets, fresh_objectives, fresh_final = run_fresh_path(
            dist, channel, GreedySelector(), oracle(gold), budget, k
        )
        engine = CrowdFusionEngine(
            GreedySelector(), channel, budget=budget, tasks_per_round=k
        )
        result = engine.run(dist, oracle(gold))

        assert [record.task_ids for record in result.rounds] == fresh_sets
        for record, objective in zip(result.rounds, fresh_objectives):
            assert record.selection_objective == pytest.approx(objective, abs=1e-9)
        assert result.final_distribution.allclose(fresh_final, tolerance=1e-9)


class TestRefinementSession:
    def make_session(self, accuracy=0.8):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        return dist, RefinementSession(dist, CrowdModel(accuracy))

    def test_initial_posterior_is_the_prior(self):
        dist, session = self.make_session()
        assert session.distribution is dist
        assert session.entropy() == pytest.approx(dist.entropy())
        assert session.marginals() == pytest.approx(dist.marginals())

    def test_merge_matches_merge_answers(self):
        dist, session = self.make_session()
        answers = AnswerSet.from_mapping({"a": True, "c": False})
        session.merge(answers)
        expected = merge_answers(dist, answers, CrowdModel(0.8))
        assert session.distribution.allclose(expected, tolerance=1e-12)
        assert session.rounds_merged == 1
        assert session.entropy() == pytest.approx(expected.entropy())
        assert session.predicted_labels() == expected.predicted_labels()

    def test_merge_invalidates_materialised_posterior(self):
        dist, session = self.make_session()
        before = session.distribution
        session.merge(AnswerSet.from_mapping({"a": True}))
        after = session.distribution
        assert after is not before
        assert after is session.distribution  # cached until the next merge

    def test_session_select_uses_selector(self):
        _, session = self.make_session()
        result = session.select(GreedySelector(), k=2)
        assert len(result.task_ids) == 2
        assert result.stats.elapsed_seconds >= 0.0

    def test_fallback_selector_works_with_sessions(self):
        _, session = self.make_session()
        result = RandomSelector(seed=3).select_with_session(session, 2)
        assert len(result.task_ids) == 2

    def test_exclude_validated_on_session_path(self):
        _, session = self.make_session()
        with pytest.raises(SelectionError):
            GreedySelector().select_with_session(session, 1, exclude=["nope"])

    def test_engine_survives_perfect_crowd_zero_rows(self):
        # Pc = 1 drives conflicting support rows to exactly zero mass; the
        # session must keep row alignment and still answer later rounds.
        dist, session = self.make_session(accuracy=1.0)
        session.merge(AnswerSet.from_mapping({"a": True}))
        assert session.marginal("a") == pytest.approx(1.0)
        expected = merge_answers(dist, AnswerSet.from_mapping({"a": True}), CrowdModel(1.0))
        assert session.distribution.allclose(expected, tolerance=1e-12)
        # A second round on the now-partially-zero support still works.
        session.merge(AnswerSet.from_mapping({"b": True}))
        assert session.marginal("b") == pytest.approx(1.0)

    def test_query_selector_reuses_matching_session(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5, "d": 0.45})
        query = Query.of(["a", "b"])
        session = RefinementSession(dist, CrowdModel(0.8), interest_ids=query.fact_ids)
        selector = QueryGreedySelector(query)
        from_session = selector.select_with_session(session, 2)
        from_fresh = selector.select(dist, CrowdModel(0.8), 2)
        assert from_session.task_ids == from_fresh.task_ids
        assert from_session.objective == pytest.approx(from_fresh.objective, abs=1e-12)

    def test_query_selector_falls_back_on_interest_mismatch(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        session = RefinementSession(dist, CrowdModel(0.8))  # no interest cells
        selector = QueryGreedySelector(Query.of(["a"]))
        result = selector.select_with_session(session, 2)
        fresh = selector.select(dist, CrowdModel(0.8), 2)
        assert result.task_ids == fresh.task_ids


class TestEngineReweight:
    def test_reweight_validates_shape_and_values(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        with pytest.raises(SelectionError):
            engine.reweight(np.ones(3))
        with pytest.raises(SelectionError):
            engine.reweight(np.array([-1.0] * dist.support_size))
        with pytest.raises(SelectionError):
            engine.reweight(np.zeros(dist.support_size))

    def test_reweight_renormalises_and_clears_weighted_bits(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        before = engine.weighted_bits("a").sum()
        assert before == pytest.approx(0.3)
        weights = np.where(engine.bits("a") == 1, 2.0, 1.0)
        engine.reweight(weights)
        assert engine.probabilities.sum() == pytest.approx(1.0)
        after = engine.weighted_bits("a").sum()
        assert after == pytest.approx(0.6 / 1.3)
        assert engine.reweights == 1

    def test_reweight_leaves_the_callers_weights_alone(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        weights = np.where(engine.bits("a") == 1, 2.0, 1.0)
        kept = weights.copy()
        engine.reweight(weights)
        assert np.array_equal(weights, kept)
        assert not np.shares_memory(engine.probabilities, weights)

    def test_a_reweight_that_removes_all_mass_changes_nothing(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        engine.weighted_bits("a")
        before = engine.probabilities.copy()
        zeros = np.zeros(dist.support_size)
        for reweight in (
            engine.reweight,
            lambda weights: engine._reweight_blocks(
                0.0, lambda start, stop, _out, _scratch: weights[start:stop]
            ),
        ):
            with pytest.raises(SelectionError, match="all probability mass"):
                reweight(zeros)
            assert np.array_equal(engine.probabilities, before)
            assert engine.reweights == 0
            assert "a" in engine._weighted_bits


class TestSelectionStateArrays:
    def test_one_cell_states_share_the_projection(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        state = engine.initial_state()
        for fact_id in ("b", "a", None):
            assert state.combined is state.projection
            with pytest.raises(ValueError):
                state.projection[0] = 1
            if fact_id is not None:
                state = engine.extend(state, fact_id)

    def test_interest_cell_keys_are_read_only(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        engine = EntropyEngine(dist, CrowdModel(0.8), interest_ids=["c"])
        state = engine.extend(engine.initial_state(), "a")
        cells = engine.initial_state().combined
        assert np.array_equal(state.combined, (cells << 1) | state.projection)
        for array in (cells, state.projection, state.combined):
            with pytest.raises(ValueError):
                array[0] = 1


class TestSessionPool:
    def test_pool_lifecycle(self):
        pool = SessionPool()
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        session = pool.add("book1", dist, CrowdModel(0.8))
        assert pool["book1"] is session
        assert "book1" in pool and len(pool) == 1
        assert pool.keys() == ("book1",)
        assert pool.total_utility() == pytest.approx(-dist.entropy())
        assert pool.predicted_labels() == dist.predicted_labels()

    def test_duplicate_and_missing_keys_rejected(self):
        pool = SessionPool()
        dist = JointDistribution.independent({"a": 0.3})
        pool.add("x", dist, CrowdModel(0.8))
        with pytest.raises(SelectionError):
            pool.add("x", dist, CrowdModel(0.8))
        with pytest.raises(SelectionError):
            pool["missing"]
