"""Unit tests for the multi-round CrowdFusionEngine."""

import multiprocessing

import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.facts import Fact, FactSet
from repro.core.runtime import RuntimeOptions
from repro.core.selection import GreedySelector, get_selector
from repro.core.selection.session import RefinementSession
from repro.crowdsim.platform import SimulatedPlatform
from repro.crowdsim.worker import WorkerPool
from repro.datasets.running_example import running_example_distribution
from repro.evaluation.experiment import (
    EntityProblem,
    ExperimentConfig,
    run_entity_trajectory,
)
from repro.exceptions import BudgetError


def oracle_provider(gold):
    """An answer provider that always answers with the gold label."""

    def collect(task_ids):
        return AnswerSet.from_mapping({fact_id: gold[fact_id] for fact_id in task_ids})

    return collect


GOLD = {"f1": True, "f2": True, "f3": True, "f4": False}


class TestEngineConfiguration:
    def test_invalid_budget_rejected(self):
        with pytest.raises(BudgetError):
            CrowdFusionEngine(get_selector("greedy"), CrowdModel(0.8), budget=0, tasks_per_round=1)

    def test_invalid_round_size_rejected(self):
        with pytest.raises(BudgetError):
            CrowdFusionEngine(get_selector("greedy"), CrowdModel(0.8), budget=5, tasks_per_round=0)

    def test_properties(self):
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=6, tasks_per_round=2
        )
        assert engine.budget == 6
        assert engine.tasks_per_round == 2


class TestEngineRun:
    def test_budget_respected(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=5, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        assert result.total_cost <= 5

    def test_round_sizes(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=5, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        sizes = [len(record.task_ids) for record in result.rounds]
        assert all(size <= 2 for size in sizes)
        # The last round may be smaller because of the odd budget.
        assert sum(sizes) == result.total_cost

    def test_utility_improves_with_oracle_answers(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.9), budget=12, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        assert result.final_utility > result.initial_utility

    def test_final_labels_match_gold_with_reliable_oracle(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.95), budget=20, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        assert result.predicted_labels() == GOLD

    def test_history_records_cumulative_cost(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=6, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        costs = [record.cumulative_cost for record in result.rounds]
        assert costs == sorted(costs)
        assert costs[-1] == result.total_cost

    def test_utility_curve_starts_at_prior(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=4, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        curve = result.utility_curve()
        assert curve[0] == (0, result.initial_utility)
        assert len(curve) == len(result.rounds) + 1

    def test_round_callback_invoked_every_round(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=4, tasks_per_round=2
        )
        seen = []
        engine.run(dist, oracle_provider(GOLD), round_callback=lambda r, d: seen.append(r))
        assert len(seen) == 2

    def test_no_reselect_mode_stops_after_all_facts_asked(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"),
            CrowdModel(0.8),
            budget=100,
            tasks_per_round=2,
            reselect_asked_facts=False,
        )
        result = engine.run(dist, oracle_provider(GOLD))
        asked = [fact for record in result.rounds for fact in record.task_ids]
        assert len(asked) == len(set(asked)) == 4

    def test_works_with_simulated_platform(self):
        dist = running_example_distribution()
        platform = SimulatedPlatform(
            ground_truth=GOLD, workers=WorkerPool.homogeneous(10, 0.9, seed=1)
        )
        engine = CrowdFusionEngine(
            get_selector("greedy_prune_pre"), CrowdModel(0.9), budget=12, tasks_per_round=3
        )
        result = engine.run(dist, platform)
        assert result.total_cost == 12
        assert platform.stats().answers_collected == 12

    def test_round_record_gain_property(self):
        dist = running_example_distribution()
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=2, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider(GOLD))
        record = result.rounds[0]
        assert record.utility_gain == pytest.approx(
            record.utility_after - record.utility_before
        )

    def test_stops_when_distribution_is_certain(self):
        dist = JointDistribution.independent({"a": 1.0, "b": 1.0})
        engine = CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=10, tasks_per_round=2
        )
        result = engine.run(dist, oracle_provider({"a": True, "b": True}))
        # Nothing is uncertain, so the greedy selector returns no tasks and the
        # engine terminates without spending the budget.
        assert result.total_cost == 0
        assert result.rounds == []

    def test_rounds_chain_utilities_and_costs(self):
        """The round loop's contracts, under re-calibration and no re-asking:
        each round starts exactly where the previous one ended, round 1 at
        the prior, and the cost is the running sum of the round sizes."""
        dist = running_example_distribution()
        platform = SimulatedPlatform(
            ground_truth=GOLD, workers=WorkerPool.homogeneous(10, 0.75, seed=3)
        )
        engine = CrowdFusionEngine(
            get_selector("greedy"),
            CrowdModel(0.8),
            budget=3,
            tasks_per_round=2,
            reselect_asked_facts=False,
            runtime=RuntimeOptions(recalibrate=True),
        )
        result = engine.run(dist, platform)

        assert [len(record.task_ids) for record in result.rounds] == [2, 1]
        prior = RefinementSession(dist, CrowdModel(0.8)).utility()
        assert result.rounds[0].utility_before == prior
        for previous, record in zip(result.rounds, result.rounds[1:]):
            assert record.utility_before == previous.utility_after
        running = 0
        for index, record in enumerate(result.rounds, start=1):
            running += len(record.task_ids)
            assert record.round_index == index
            assert record.cumulative_cost == running


class FailsOnRoundTwo(GreedySelector):
    """Greedy selection that records the live worker count after round 1's
    scan and raises when asked for round 2."""

    def __init__(self):
        super().__init__()
        self.rounds = 0
        self.alive_after_round_one = None

    def select_with_session(self, session, k, exclude=()):
        self.rounds += 1
        if self.rounds == 2:
            raise RuntimeError("injected selection failure")
        result = super().select_with_session(session, k, exclude=exclude)
        self.alive_after_round_one = len(multiprocessing.active_children())
        return result


@pytest.mark.parallel
def test_trajectory_releases_its_scan_pool_when_a_round_raises(monkeypatch):
    dist = running_example_distribution()
    problem = EntityProblem(
        entity="running",
        facts=FactSet([Fact(f, "running", "attr", f) for f in dist.fact_ids]),
        prior=dist,
        gold=GOLD,
    )
    selector = FailsOnRoundTwo()
    monkeypatch.setattr(
        "repro.evaluation.experiment.get_selector", lambda *args, **kwargs: selector
    )
    config = ExperimentConfig(
        selector="greedy", k=2, budget_per_entity=6,
        runtime=RuntimeOptions(workers=2, parallel_threshold=0),
    )
    with pytest.raises(RuntimeError, match="injected selection failure"):
        run_entity_trajectory(problem, 0, config)

    assert selector.alive_after_round_one == 2, "round 1 never used the pool"
    assert multiprocessing.active_children() == []
