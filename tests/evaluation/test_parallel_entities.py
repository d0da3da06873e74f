"""Cross-entity fan-out: parallel experiment curves must equal serial ones.

Entities are independent between curve points (each derives every random
stream from ``config.seed`` and its global index), so fanning whole entity
trajectories out across a fork pool and assembling the pass-aligned curve
must reproduce the in-process run's points exactly — same costs, same summed
utilities, same classification scores, in the same order.  The suite also
covers the configuration validation that guards the parallel flags.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.core.runtime import RuntimeOptions
from repro.core.selection import GreedySelector
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import (
    ExperimentConfig,
    build_problems,
    run_quality_experiment,
)
from repro.exceptions import CrowdFusionError
from repro.fusion import ModifiedCRH


@pytest.fixture(scope="module")
def problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(
            num_books=6, num_sources=10, max_sources_per_book=8, seed=3
        )
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


class TestConfigValidation:
    """Satellite: bad parallel settings fail fast with clear messages."""

    def test_zero_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="positive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=0))

    def test_negative_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="workers"):
            ExperimentConfig(runtime=RuntimeOptions(workers=-2))

    def test_negative_parallel_threshold_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_threshold"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=-1))

    def test_nonpositive_parallel_entities_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_entities"):
            ExperimentConfig(runtime=RuntimeOptions(parallel_entities=0))

    def test_parallel_entities_excludes_workers(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_entities=2))

    def test_parallel_entities_needs_fork(self, monkeypatch):
        monkeypatch.setattr("repro.core.runtime.fork_available", lambda: False)
        with pytest.raises(CrowdFusionError, match="fork"):
            ExperimentConfig(runtime=RuntimeOptions(parallel_entities=2))

    def test_valid_configs_pass(self):
        ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=0))
        ExperimentConfig(runtime=RuntimeOptions(parallel_entities=4))


def assert_identical_curves(serial, fanned):
    assert len(serial.points) == len(fanned.points)
    for serial_point, fanned_point in zip(serial.points, fanned.points):
        assert fanned_point == serial_point


def fan_out(config, parallel_entities):
    """``config`` with its runtime switched to entity fan-out."""
    return replace(
        config,
        runtime=replace(config.runtime_options, parallel_entities=parallel_entities),
    )


@pytest.mark.parallel
class TestFanOutEquivalence:
    @pytest.mark.parametrize("parallel_entities", [1, 2, 4])
    def test_curves_identical_across_pool_sizes(self, problems, parallel_entities):
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=8,
            worker_accuracy=0.85, seed=5,
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(
            problems, fan_out(config, parallel_entities)
        )
        assert_identical_curves(serial, fanned)

    def test_calibrated_channels_and_difficulties(self, problems):
        config = ExperimentConfig(
            selector="greedy_lazy", k=2, budget_per_entity=6,
            worker_accuracy=0.85, seed=7, crowd_model="calibrated",
            use_difficulties=True,
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(problems, fan_out(config, 3))
        assert_identical_curves(serial, fanned)

    def test_recalibration_and_seeded_random_selector(self, problems):
        config = ExperimentConfig(
            selector="random", k=2, budget_per_entity=6, seed=9,
            runtime=RuntimeOptions(recalibrate=True),
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(problems, fan_out(config, 4))
        assert_identical_curves(serial, fanned)

    def test_budget_overrides_respected(self, problems):
        config = ExperimentConfig(selector="greedy", k=2, budget_per_entity=4, seed=1)
        budgets = {problems[0].entity: 8, problems[1].entity: 0}
        serial = run_quality_experiment(problems, config, budgets=budgets)
        fanned = run_quality_experiment(
            problems, fan_out(config, 2), budgets=budgets
        )
        assert_identical_curves(serial, fanned)


@pytest.mark.parallel
class TestSharedPoolExperiment:
    def test_non_parallel_selector_warns(self, problems):
        """The 'parallel settings ignored' warning must fire for selectors
        outside the greedy family — fact_entropy never consumes a pool."""
        config = ExperimentConfig(
            selector="fact_entropy", k=1, budget_per_entity=2,
            runtime=RuntimeOptions(workers=2),
        )
        with pytest.warns(RuntimeWarning, match="does not support parallel"):
            run_quality_experiment(problems[:2], config)

    def test_shared_pool_curves_match_serial(self, problems):
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=6, seed=11,
        )
        serial = run_quality_experiment(problems, config)
        pooled = run_quality_experiment(
            problems,
            replace(config, runtime=RuntimeOptions(workers=2, parallel_threshold=0)),
        )
        assert_identical_curves(serial, pooled)

    def test_experiment_keeps_at_most_workers_scan_processes(
        self, problems, monkeypatch
    ):
        """Each entity's session owns its scan pool while it refines: at most
        ``workers`` scan processes alive at any time, at most one pool fork
        per entity, and nothing left behind after the call."""
        workers = 2
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=6, seed=11,
        )
        serial = run_quality_experiment(problems, config)

        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        alive = []
        runner = GreedySelector._runner

        def sampling_runner(self, engine, k, candidates, evaluator):
            result = runner(self, engine, k, candidates, evaluator)
            alive.append(len(multiprocessing.active_children()))
            return result

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(GreedySelector, "_runner", sampling_runner)
        pooled = run_quality_experiment(
            problems,
            replace(
                config,
                runtime=RuntimeOptions(workers=workers, parallel_threshold=0),
            ),
        )
        assert multiprocessing.active_children() == []

        assert_identical_curves(serial, pooled)
        assert alive and max(alive) <= workers
        assert min(alive) == workers, "the shared pool never served a scan"
        assert len(forks) <= workers * len(problems)
