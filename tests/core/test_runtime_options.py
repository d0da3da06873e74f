"""RuntimeOptions: validation, derived policies, and threading through layers.

One typed object carries every execution knob through every layer (engine,
session, session pool, experiment config, CLI).  This suite pins the
validation rules, the policies each layer derives, the 2.0 contract
(``workers`` always means a session-owned pool, ``persistent_pool`` is
accepted and ignored, and the removed loose keywords are gone) and the 3.0
one: no ``kernel`` field.
"""

import warnings
from dataclasses import fields, replace

import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    EvaluatorPool,
    ParallelPolicy,
    RefinementSession,
    SessionPool,
    get_selector,
)
from repro.core.selection.parallel import DEFAULT_PARALLEL_THRESHOLD
from repro.evaluation import ExperimentConfig
from repro.exceptions import CrowdFusionError


def small_distribution():
    return JointDistribution.independent({"f1": 0.7, "f2": 0.4, "f3": 0.55})


class TestValidation:
    def test_defaults_are_valid_and_serial(self):
        options = RuntimeOptions()
        assert options.parallel_policy is None
        assert not options.parallel

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="workers"):
            RuntimeOptions(workers=0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_threshold"):
            RuntimeOptions(workers=2, parallel_threshold=-1)

    def test_nonpositive_parallel_entities_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_entities"):
            RuntimeOptions(parallel_entities=0)

    def test_persistent_pool_is_accepted_and_ignored(self):
        # Every pool persists across merges, so the flag selects nothing:
        # it constructs without workers and never changes the policy.
        assert RuntimeOptions(persistent_pool=True).parallel_policy is None
        assert (
            RuntimeOptions(workers=2, persistent_pool=True).parallel_policy
            == RuntimeOptions(workers=2).parallel_policy
        )

    def test_kernel_field_is_gone(self):
        # One candidate-scan implementation since 3.0: there is no tier to pick.
        with pytest.raises(TypeError):
            RuntimeOptions(kernel="numpy")
        assert [field.name for field in fields(RuntimeOptions)] == [
            "workers",
            "parallel_threshold",
            "persistent_pool",
            "recalibrate",
            "parallel_entities",
            "dispatch_timeout_ms",
            "max_rebuilds",
        ]

    def test_workers_and_entities_are_exclusive(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            RuntimeOptions(workers=2, parallel_entities=2)

    def test_parallel_entities_needs_fork(self, monkeypatch):
        monkeypatch.setattr("repro.core.runtime.fork_available", lambda: False)
        with pytest.raises(CrowdFusionError, match="fork"):
            RuntimeOptions(parallel_entities=2)


class TestDerivedPolicies:
    def test_policy_carries_workers_and_threshold(self):
        options = RuntimeOptions(workers=3, parallel_threshold=17)
        policy = options.parallel_policy
        assert policy == ParallelPolicy(workers=3, parallel_threshold=17)

    def test_default_threshold_is_the_library_default(self):
        policy = RuntimeOptions(workers=2).parallel_policy
        assert policy.parallel_threshold == DEFAULT_PARALLEL_THRESHOLD

    def test_workers_always_mean_a_session_owned_pool(self):
        options = RuntimeOptions(workers=2)
        with RefinementSession(
            small_distribution(), CrowdModel(0.8), runtime=options
        ) as session:
            assert session.parallel_policy == options.parallel_policy
            assert session.shared_evaluator() is not None

    def test_parallel_flag_covers_both_axes(self):
        assert RuntimeOptions(workers=2).parallel
        assert RuntimeOptions(parallel_entities=2).parallel
        assert not RuntimeOptions(recalibrate=True).parallel


class TestSessionRuntime:
    def test_runtime_supplies_recalibration(self):
        session = RefinementSession(
            small_distribution(),
            CrowdModel(0.8),
            runtime=RuntimeOptions(recalibrate=True),
        )
        assert session.recalibrates

    def test_recalibrate_keyword_is_gone(self):
        with pytest.raises(TypeError):
            RefinementSession(small_distribution(), CrowdModel(0.8), recalibrate=True)

    def test_pool_add_forwards_runtime(self):
        with SessionPool() as pool:
            session = pool.add(
                "entity",
                small_distribution(),
                CrowdModel(0.8),
                runtime=RuntimeOptions(recalibrate=True),
            )
            assert session.recalibrates

    def test_shared_pool_supersedes_runtime_workers(self):
        shared_policy = ParallelPolicy(workers=3, parallel_threshold=0)
        with EvaluatorPool(shared_policy) as shared:
            session = RefinementSession(
                small_distribution(),
                CrowdModel(0.8),
                runtime=RuntimeOptions(workers=2),
                evaluator_pool=shared,
            )
            assert session.parallel_policy == shared_policy
            session.shared_evaluator()
            assert shared.attached == 1
            session.close()
            assert shared.attached == 0


class TestEngineRuntime:
    def _engine(self, **kwargs):
        return CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=4, tasks_per_round=2, **kwargs
        )

    def test_runtime_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._engine(runtime=RuntimeOptions(recalibrate=True))

    def test_removed_keywords_are_gone(self):
        for keyword in ("recalibrate_channels", "persistent_pool"):
            with pytest.raises(TypeError):
                self._engine(**{keyword: True})

    def test_runtime_supplies_the_policy(self):
        engine = self._engine(runtime=RuntimeOptions(workers=2, parallel_threshold=0))
        assert engine._parallel == ParallelPolicy(workers=2, parallel_threshold=0)

    def test_explicit_policy_wins_over_runtime(self):
        policy = ParallelPolicy(workers=3, parallel_threshold=5)
        engine = self._engine(parallel=policy, runtime=RuntimeOptions(workers=2))
        assert engine._parallel == policy

    def test_non_parallel_selector_warns(self):
        with pytest.warns(RuntimeWarning, match="does not support parallel"):
            CrowdFusionEngine(
                get_selector("fact_entropy"), CrowdModel(0.8), budget=4,
                tasks_per_round=2, runtime=RuntimeOptions(workers=2),
            )


class TestExperimentConfigRuntime:
    def test_runtime_supplies_the_policy(self):
        config = ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=5))
        assert config.parallel_policy == ParallelPolicy(workers=2, parallel_threshold=5)
        assert config.runtime_options.workers == 2

    def test_unset_runtime_means_serial_defaults(self):
        config = ExperimentConfig()
        assert config.runtime_options == RuntimeOptions()
        assert config.parallel_policy is None

    def test_loose_runtime_fields_are_gone(self):
        for field_name in (
            "recalibrate_channels",
            "workers",
            "parallel_threshold",
            "persistent_pool",
            "parallel_entities",
        ):
            with pytest.raises(TypeError):
                ExperimentConfig(**{field_name: 1})

    def test_replace_keeps_runtime_field_verbatim(self):
        runtime = RuntimeOptions(recalibrate=True)
        config = ExperimentConfig(runtime=runtime)
        assert replace(config, k=5).runtime is runtime

    def test_runtime_invalid_combination_still_rejected(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_entities=2))
