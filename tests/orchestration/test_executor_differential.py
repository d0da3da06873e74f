"""Differential suite: every sweep executor gives the serial runner's curve.

Each example draws a small sweep and runs it four ways: the in-process
``run_quality_experiment``, the same with ``parallel_entities=2``,
``run_checkpointed_experiment`` with two shards, and
``run_cluster_experiment`` with two local workers and a drawn lease size.
All four must give equal points, and the two durable runs must write
byte-identical ``curve.jsonl`` files (differential testing after McKeeman,
1998).  The service refines sessions, not sweeps, so it is not one of the
executors here.
"""

import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import RuntimeOptions
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.fusion import ModifiedCRH
from repro.orchestration import (
    ClusterConfig,
    OrchestratorConfig,
    run_checkpointed_experiment,
    run_cluster_experiment,
)
from repro.orchestration.orchestrator import CURVE_NAME

pytestmark = pytest.mark.parallel

GREEDY_FAMILY = ["greedy", "greedy_lazy", "greedy_prune", "greedy_pre", "greedy_prune_pre"]
CROWD_MODELS = ["uniform", "difficulty", "calibrated"]


@st.composite
def sweeps(draw):
    books = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    corpus = generate_book_corpus(
        BookCorpusConfig(
            num_books=books,
            num_sources=8,
            max_sources_per_book=6,
            seed=draw(st.integers(min_value=0, max_value=1000)),
        )
    )
    problems = build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=6,
    )
    config = ExperimentConfig(
        selector=draw(st.sampled_from(GREEDY_FAMILY)),
        k=k,
        budget_per_entity=draw(st.integers(min_value=k, max_value=3 * k)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        crowd_model=draw(st.sampled_from(CROWD_MODELS)),
        use_difficulties=draw(st.booleans()),
    )
    lease_entities = draw(st.integers(min_value=1, max_value=books))
    return problems, config, lease_entities


@settings(max_examples=6, deadline=None)
@given(sweeps())
def test_every_executor_gives_the_serial_curve(sweep):
    problems, config, lease_entities = sweep
    serial = run_quality_experiment(problems, config)
    fanned = run_quality_experiment(
        problems, replace(config, runtime=RuntimeOptions(parallel_entities=2))
    )
    with tempfile.TemporaryDirectory() as scratch:
        durable_dir = os.path.join(scratch, "durable")
        cluster_dir = os.path.join(scratch, "cluster")
        durable = run_checkpointed_experiment(
            problems, config, OrchestratorConfig(run_dir=durable_dir, shards=2)
        )
        cluster = run_cluster_experiment(
            problems,
            config,
            ClusterConfig(
                run_dir=cluster_dir,
                lease_entities=lease_entities,
                local_workers=2,
            ),
        )
        with open(os.path.join(durable_dir, CURVE_NAME), "rb") as handle:
            durable_curve = handle.read()
        with open(os.path.join(cluster_dir, CURVE_NAME), "rb") as handle:
            cluster_curve = handle.read()

    assert fanned.points == serial.points
    assert durable.result.points == serial.points
    assert cluster.result.points == serial.points
    assert cluster.stats.results_rejected == 0
    assert durable_curve == cluster_curve
