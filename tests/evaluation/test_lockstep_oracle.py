"""The experiment curve against a lock-step oracle.

The paper accumulates cost pass by pass over the whole collection: pass ``r``
runs every entity's ``r``-th round, and a curve point is recorded after each
pass.  ``run_quality_experiment`` instead runs each entity's trajectory on
its own and splices the passes back together in
:func:`~repro.evaluation.experiment.assemble_curve`.  The oracle below runs
the passes literally — every entity interleaved on one :class:`SessionPool`,
each point read from the pool's aggregates — and the two curves must agree
exactly (``QualityPoint`` equality compares the floats).
"""

import pytest

from repro.core.distribution import JointDistribution
from repro.core.facts import Fact, FactSet
from repro.core.runtime import RuntimeOptions
from repro.core.selection.session import SessionPool
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import ExperimentConfig, build_problems, run_quality_experiment
from repro.evaluation.experiment import (
    EntityProblem,
    QualityPoint,
    _prepare_entity,
    run_entity_trajectory,
)
from repro.evaluation.metrics import classification_scores
from repro.fusion import ModifiedCRH


def lockstep_curve(problems, config, budgets=None):
    """Every entity's ``r``-th round in pass ``r``; one curve point per pass."""
    gold = {fact: label for problem in problems for fact, label in problem.gold.items()}
    entities = []
    with SessionPool() as pool:
        for index, problem in enumerate(problems):
            platform, channel, selector, budget = _prepare_entity(
                problem, index, config, dict(budgets or {})
            )
            session = pool.add(
                problem.entity, problem.prior, channel, runtime=config.runtime_options
            )
            entities.append([session, platform, selector, budget])

        def point(cost):
            scores = classification_scores(pool.predicted_labels(), gold)
            return QualityPoint(
                cost, pool.total_utility(), scores.f1, scores.precision,
                scores.recall, scores.accuracy,
            )

        # Calibration pre-tests spend platform answers before the first pass.
        cost = sum(entity[1].stats().answers_collected for entity in entities)
        points = [point(cost)]
        while True:
            progressed = False
            for entity in entities:
                session, platform, selector, remaining = entity
                k = min(config.k, remaining, session.num_facts)
                selection = selector.select_with_session(session, k) if k > 0 else None
                if selection is None or not selection.task_ids:
                    entity[3] = 0
                    continue
                session.merge(platform.collect(selection.task_ids))
                entity[3] -= len(selection.task_ids)
                cost += len(selection.task_ids)
                progressed = True
            if not progressed:
                return points
            points.append(point(cost))


def handmade_problem(entity, prior, gold):
    return EntityProblem(
        entity=entity,
        facts=FactSet([Fact(fact_id, entity, "attr", fact_id) for fact_id in gold]),
        prior=prior,
        gold=gold,
        difficulties={fact_id: 0.0 for fact_id in gold},
    )


def certain_problem():
    """A certain prior: the greedy family has nothing to ask from pass 1 on."""
    ids = ["certain/1", "certain/2", "certain/3"]
    return handmade_problem(
        "certain",
        JointDistribution(ids, {0b101: 1.0}),
        {"certain/1": True, "certain/2": True, "certain/3": False},
    )


def single_fact_problem():
    """One fact: every round asks one task, so the budget lasts ``k`` times
    as many passes as a book's."""
    return handmade_problem(
        "single", JointDistribution.independent({"single/1": 0.6}), {"single/1": False}
    )


@pytest.fixture(scope="module")
def problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=6, num_sources=10, max_sources_per_book=8, seed=3)
    )
    books = build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )
    # The handmade entities sit mid-list: labels pool and utilities sum in
    # entity order.
    return (
        books[:2] + [certain_problem()] + books[2:4] + [single_fact_problem()]
        + books[4:]
    )


def assert_matches_oracle(problems, config, budgets=None):
    expected = lockstep_curve(problems, config, budgets)
    assert run_quality_experiment(problems, config, budgets=budgets).points == expected
    rounds = [
        len(run_entity_trajectory(problem, index, config, budgets).rounds)
        for index, problem in enumerate(problems)
    ]
    # Entities must stop on different passes, or the splice is not exercised.
    assert len(set(rounds)) > 1, rounds
    assert len(expected) == max(rounds) + 1


@pytest.mark.parametrize("crowd_model", ["uniform", "difficulty", "calibrated"])
@pytest.mark.parametrize(
    "selector", ["greedy", "greedy_lazy", "greedy_prune_pre", "random"]
)
def test_selectors_and_crowd_models(problems, selector, crowd_model):
    config = ExperimentConfig(
        selector=selector, k=2, budget_per_entity=6, worker_accuracy=0.8,
        use_difficulties=True, seed=17, crowd_model=crowd_model,
    )
    assert_matches_oracle(problems, config)


@pytest.mark.parametrize("selector", ["greedy_prune_pre", "random"])
def test_recalibration(problems, selector):
    config = ExperimentConfig(
        selector=selector, k=3, budget_per_entity=9, worker_accuracy=0.75,
        seed=23, runtime=RuntimeOptions(recalibrate=True),
    )
    assert_matches_oracle(problems, config)


@pytest.mark.parametrize("selector", ["greedy", "random"])
def test_budget_overrides(problems, selector):
    config = ExperimentConfig(selector=selector, k=3, budget_per_entity=6, seed=29)
    budgets = {
        problems[0].entity: 0,  # never asks anything
        problems[1].entity: 7,  # not a multiple of k: a short last round
        problems[3].entity: 14,  # runs past every default-budget entity
    }
    assert_matches_oracle(problems, config, budgets)


def test_perfect_crowd_stops_entities_once_certain(problems):
    # With Pc = 1 every answered fact becomes certain, so each entity stops
    # as soon as it has asked all of its facts — on a pass set by its size.
    config = ExperimentConfig(
        selector="greedy_lazy", k=2, budget_per_entity=40, worker_accuracy=1.0,
        seed=31,
    )
    assert_matches_oracle(problems, config)
