"""Unit tests for the experiment runner (build_problems + run_quality_experiment)."""

import re

import pytest

from repro.correlation.rules import MutualExclusionRule
from repro.datasets.book import BookCorpusConfig, generate_book_corpus
from repro.evaluation.experiment import (
    EntityProblem,
    ExperimentConfig,
    build_problems,
    run_quality_experiment,
)
from repro.exceptions import CrowdFusionError, DatasetError
from repro.fusion.crh import ModifiedCRH
from repro.fusion.majority import MajorityVote
from repro.core.distribution import JointDistribution
from repro.core.facts import Fact, FactSet


@pytest.fixture(scope="module")
def corpus():
    return generate_book_corpus(
        BookCorpusConfig(num_books=8, num_sources=12, seed=21)
    )


@pytest.fixture(scope="module")
def problems(corpus):
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


class TestEntityProblem:
    def test_missing_gold_label_rejected(self):
        facts = FactSet([Fact("c1", "e", "a", "v")])
        prior = JointDistribution.independent({"c1": 0.5})
        with pytest.raises(DatasetError):
            EntityProblem(entity="e", facts=facts, prior=prior, gold={})


class TestBuildProblems:
    def test_one_problem_per_entity(self, corpus, problems):
        assert len(problems) == len(corpus.database.entities())

    def test_fact_cap_respected(self, problems):
        assert all(len(problem.facts) <= 8 for problem in problems)

    def test_prior_and_facts_aligned(self, problems):
        for problem in problems:
            assert problem.prior.fact_ids == problem.facts.fact_ids

    def test_gold_labels_cover_all_facts(self, problems):
        for problem in problems:
            assert set(problem.gold) == set(problem.prior.fact_ids)

    def test_entity_filter(self, corpus):
        wanted = list(corpus.database.entities())[:3]
        problems = build_problems(
            corpus.database, corpus.gold, MajorityVote(), entities=wanted
        )
        assert [problem.entity for problem in problems] == wanted

    def test_rule_factory_changes_prior(self, corpus):
        def exclusive(entity, fact_ids):
            if len(fact_ids) < 2:
                return []
            return [MutualExclusionRule(fact_ids, strength=0.8, max_true=2)]

        independent = build_problems(corpus.database, corpus.gold, MajorityVote())
        correlated = build_problems(
            corpus.database, corpus.gold, MajorityVote(), rule_factory=exclusive
        )
        changed = any(
            not a.prior.allclose(b.prior)
            for a, b in zip(independent, correlated)
            if a.prior.num_facts >= 2
        )
        assert changed

    def test_empty_result_rejected(self, corpus):
        with pytest.raises(DatasetError):
            build_problems(
                corpus.database, corpus.gold, MajorityVote(), entities=["no-such-entity"]
            )

    def test_unknown_entities_rejected_before_fusing(self, corpus):
        first = corpus.database.entities()[0]
        with pytest.raises(DatasetError, match=re.escape("unknown entities ['ghost-1', 'ghost-2']")):
            build_problems(
                corpus.database,
                corpus.gold,
                UnusableFusion(),
                entities=["ghost-1", first, "ghost-2", "ghost-1"],
            )

    def test_repeated_entities_rejected_before_fusing(self, corpus):
        first, second = corpus.database.entities()[:2]
        with pytest.raises(DatasetError, match=re.escape(f"repeated entities {[first, second]}")):
            build_problems(
                corpus.database,
                corpus.gold,
                UnusableFusion(),
                entities=[first, second, first, second],
            )


class UnusableFusion:
    """A fusion method that fails if ``build_problems`` gets as far as fusing."""

    name = "unusable"

    def run(self, database):
        raise AssertionError("build_problems fused before validating its entities")


class TestRunQualityExperiment:
    def test_requires_problems(self):
        with pytest.raises(CrowdFusionError):
            run_quality_experiment([], ExperimentConfig())

    def test_curve_starts_at_zero_cost(self, problems):
        config = ExperimentConfig(k=2, budget_per_entity=4, worker_accuracy=0.9, seed=3)
        result = run_quality_experiment(problems, config)
        assert result.points[0].cost == 0
        assert result.initial_point is result.points[0]
        assert result.final_point is result.points[-1]

    def test_costs_strictly_increase(self, problems):
        config = ExperimentConfig(k=2, budget_per_entity=4, worker_accuracy=0.9, seed=3)
        result = run_quality_experiment(problems, config)
        costs = result.costs()
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)

    def test_total_cost_bounded_by_budget(self, problems):
        config = ExperimentConfig(k=3, budget_per_entity=6, worker_accuracy=0.8, seed=1)
        result = run_quality_experiment(problems, config)
        assert result.final_point.cost <= 6 * len(problems)

    def test_accurate_crowd_improves_f1_and_utility(self, problems):
        config = ExperimentConfig(
            selector="greedy_prune_pre", k=2, budget_per_entity=10,
            worker_accuracy=0.95, seed=5,
        )
        result = run_quality_experiment(problems, config)
        assert result.final_point.f1 >= result.initial_point.f1
        assert result.final_point.utility > result.initial_point.utility

    def test_deterministic_given_seed(self, problems):
        config = ExperimentConfig(k=2, budget_per_entity=4, worker_accuracy=0.8, seed=11)
        first = run_quality_experiment(problems, config)
        second = run_quality_experiment(problems, config)
        assert first.f1_series() == second.f1_series()
        assert first.utility_series() == second.utility_series()

    def test_assumed_accuracy_defaults_to_worker_accuracy(self):
        config = ExperimentConfig(worker_accuracy=0.77)
        assert config.model_accuracy == 0.77
        override = ExperimentConfig(worker_accuracy=0.77, assumed_accuracy=0.9)
        assert override.model_accuracy == 0.9

    def test_random_selector_runs(self, problems):
        config = ExperimentConfig(
            selector="random", k=2, budget_per_entity=4, worker_accuracy=0.8, seed=2
        )
        result = run_quality_experiment(problems, config)
        assert result.final_point.cost > 0

    def test_series_accessors_aligned(self, problems):
        config = ExperimentConfig(k=2, budget_per_entity=4, worker_accuracy=0.8, seed=4)
        result = run_quality_experiment(problems, config)
        assert len(result.costs()) == len(result.f1_series()) == len(result.utility_series())


class TestCrowdModelFidelities:
    def test_every_crowd_model_kind_runs(self, problems):
        for kind in ("uniform", "difficulty", "calibrated"):
            config = ExperimentConfig(
                k=2, budget_per_entity=4, worker_accuracy=0.85,
                use_difficulties=True, seed=6, crowd_model=kind,
            )
            result = run_quality_experiment(problems, config)
            assert result.final_point.cost > 0

    def test_calibration_spend_is_on_the_books(self, problems):
        config = ExperimentConfig(
            k=2, budget_per_entity=4, worker_accuracy=0.85, seed=6,
            crowd_model="calibrated", calibration_facts=3, calibration_repetitions=2,
        )
        result = run_quality_experiment(problems, config)
        # Each entity's pre-test asked 3 facts x 2 repetitions before round 1.
        assert result.initial_point.cost == 6 * len(problems)

    def test_unknown_crowd_model_rejected(self, problems):
        config = ExperimentConfig(crowd_model="psychic", budget_per_entity=2)
        with pytest.raises(CrowdFusionError):
            run_quality_experiment(problems, config)

    def test_difficulty_model_without_difficulties_matches_uniform(self, problems):
        base = ExperimentConfig(
            k=2, budget_per_entity=4, worker_accuracy=0.85,
            use_difficulties=False, seed=9, crowd_model="uniform",
        )
        adjusted = ExperimentConfig(
            k=2, budget_per_entity=4, worker_accuracy=0.85,
            use_difficulties=False, seed=9, crowd_model="difficulty",
        )
        # With difficulties disabled the per-fact channels collapse to the
        # shared Pc, so the two fidelities are the same experiment.
        assert run_quality_experiment(problems, base).f1_series() == (
            run_quality_experiment(problems, adjusted).f1_series()
        )

    def test_crowd_models_deterministic_given_seed(self, problems):
        for kind in ("difficulty", "calibrated"):
            config = ExperimentConfig(
                k=2, budget_per_entity=4, worker_accuracy=0.85,
                use_difficulties=True, seed=13, crowd_model=kind,
            )
            first = run_quality_experiment(problems, config)
            second = run_quality_experiment(problems, config)
            assert first.utility_series() == second.utility_series()
