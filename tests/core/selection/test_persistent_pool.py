"""Equivalence and lifecycle suite for the persistent parallel runtime.

The persistent pool's contract: one fork-shared worker pool owned by a
:class:`RefinementSession` survives every ``merge`` (posteriors travel
through the shared-memory snapshot ring, channel swaps are replayed from the
dispatch header), and every selection it serves must be bit-for-bit what the
serial session path selects — same task ids, objectives within 1e-9 —
across worker counts, channel models, the lazy batch-refresh variant,
re-calibration, and batched multi-query scoring.  The lifecycle half: worker
processes must never outlive their owning session/pool, even when a
selector raises mid-scan.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.query import Query
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    EvaluatorPool,
    GreedySelector,
    LazyGreedySelector,
    ParallelPolicy,
    PooledEvaluator,
    PrunedPreprocessingGreedySelector,
    QueryGreedySelector,
    RefinementSession,
    SessionPool,
)
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.parallel import _SnapshotRing
from repro.exceptions import SelectionError
from repro.testing import faults
from repro.testing.faults import FaultPlan

#: Forces the pool for any scan with at least two candidates.
FORCE_PARALLEL = 0

#: Sessions re-estimating channel accuracies as they merge.
RECALIBRATE = RuntimeOptions(recalibrate=True)


def dense_distribution(num_facts, support, seed=0):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


def heterogeneous_channel(fact_ids):
    return PerFactChannelModel(
        0.8, {fact_id: 0.6 + 0.03 * index for index, fact_id in enumerate(fact_ids)}
    )


def scripted_answers(task_ids, round_index):
    """Deterministic per-round answers so serial and parallel runs merge alike."""
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def run_rounds(session, selector, rounds=4, k=3):
    """Select/merge ``rounds`` times; return the per-round (ids, objective)."""
    history = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        history.append((result.task_ids, result.objective, result.stats))
        session.merge(scripted_answers(result.task_ids, round_index))
    return history


def assert_histories_match(serial, parallel):
    assert len(serial) == len(parallel)
    for (serial_ids, serial_objective, _), (ids, objective, _) in zip(serial, parallel):
        assert ids == serial_ids
        assert abs(objective - serial_objective) < 1e-9


class TestSnapshotRing:
    def test_publish_read_roundtrip_is_bit_exact(self):
        ring = _SnapshotRing(support_size=64, slots=3)
        try:
            probabilities = np.random.default_rng(1).dirichlet(np.ones(64))
            slot = ring.publish(7, probabilities)
            assert slot == 7 % 3
            restored = ring.read(slot)
            assert restored.dtype == np.float64
            np.testing.assert_array_equal(restored, probabilities)
        finally:
            ring.close()

    def test_load_probabilities_decouples_from_the_ring(self):
        """The one copy on the sync path happens in load_probabilities: a
        later publish to the same slot must not reach an already-synced
        engine."""
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        ring = _SnapshotRing(support_size=32, slots=2)
        try:
            snapshot = np.random.default_rng(3).dirichlet(np.ones(32))
            slot = ring.publish(1, snapshot)
            engine.load_probabilities(ring.read(slot), reweights=1)
            np.testing.assert_array_equal(engine.probabilities, snapshot)
            ring.publish(3, np.full(32, 1.0 / 32))  # same slot, new generation
            np.testing.assert_array_equal(engine.probabilities, snapshot)
        finally:
            ring.close()

    def test_close_is_idempotent(self):
        ring = _SnapshotRing(support_size=8)
        ring.close()
        ring.close()


def session_ring(session):
    """The snapshot ring of ``session``'s engine on its pool."""
    evaluator = session.shared_evaluator()
    return evaluator._shared_pool._attachments[evaluator._engine_id].ring


def scan_hexes(scan):
    return (
        [entropy.hex() for entropy in scan.entropies],
        [entropy.hex() for entropy in scan.joint_entropies],
    )


def checked_evaluations(monkeypatch):
    """Make every pooled scan assert it equals the in-process scan, float
    for float; returns the list of checked scan sizes."""
    checked = []
    pooled_evaluate = PooledEvaluator.evaluate

    def checking(evaluator, state, candidates):
        scan = pooled_evaluate(evaluator, state, candidates)
        if scan is not None:
            expected = evaluator._engine.scan(state, candidates)
            assert scan_hexes(scan) == scan_hexes(expected)
            checked.append(len(candidates))
        return scan

    monkeypatch.setattr(PooledEvaluator, "evaluate", checking)
    return checked


@pytest.mark.parallel
class TestSessionRing:
    """One slot per session: it always holds the newest posterior."""

    def test_a_session_ring_holds_one_slot(self):
        dist = dense_distribution(8, 64)
        policy = ParallelPolicy(workers=2)
        with RefinementSession(dist, CrowdModel(0.8), parallel=policy) as session:
            ring = session_ring(session)
            assert ring._slots == 1
            assert ring._array.shape == (1, 64)

    def test_workers_read_the_newest_posterior_after_each_merge(self, monkeypatch):
        dist = dense_distribution(10, 256, seed=12)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        checked = checked_evaluations(monkeypatch)
        with RefinementSession(dist, CrowdModel(0.8), parallel=policy) as session:
            engine = session.engine
            evaluator = session.shared_evaluator()
            candidates = list(dist.fact_ids)
            for round_index in range(4):
                assert evaluator.evaluate(engine.initial_state(), candidates) is not None
                if round_index:
                    # The dispatch published this round's posterior into slot 0.
                    ring = session_ring(session)
                    assert ring.read(0).tobytes() == engine.probabilities.tobytes()
                session.merge(scripted_answers(candidates[round_index:round_index + 3], round_index))
        assert len(checked) == 4


@pytest.mark.chaos
@pytest.mark.parallel
def test_scans_after_a_rebuilt_crash_stay_serial_identical(monkeypatch):
    """A worker killed mid-dispatch in the second round: the rebuilt pool's
    one-slot ring serves every later posterior, scan for scan."""
    dist = dense_distribution(10, 256, seed=13)
    crowd = CrowdModel(0.8)
    serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())
    policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
    checked = checked_evaluations(monkeypatch)
    faults.uninstall()
    try:
        # Chunk dispatch 20 falls in the first scan after the first merge.
        with faults.injected(FaultPlan(kill_worker_at_dispatch=20)):
            with RefinementSession(dist, crowd, parallel=policy) as session:
                recovered = run_rounds(session, GreedySelector())
                evaluator = session.shared_evaluator()
                assert evaluator.worker_crashes == 1
                assert evaluator.pool_rebuilds == 1
                assert not evaluator.degraded
    finally:
        faults.uninstall()
    assert_histories_match(serial, recovered)
    assert len(checked) == 3 * len(serial)
    assert multiprocessing.active_children() == []


class TestLoadProbabilities:
    def test_snapshot_load_is_verbatim(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        snapshot = np.random.default_rng(2).dirichlet(np.ones(32))
        engine.load_probabilities(snapshot, reweights=5)
        np.testing.assert_array_equal(engine.probabilities, snapshot)
        assert engine.reweights == 5

    def test_shape_mismatch_rejected(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        with pytest.raises(SelectionError):
            engine.load_probabilities(np.ones(31), reweights=1)

    def test_views_refuse_snapshots(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        view = engine.interest_view(("f0",))
        with pytest.raises(SelectionError):
            view.load_probabilities(np.ones(32), reweights=1)

    def test_set_channel_advances_the_generation(self):
        dist = dense_distribution(5, 16)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        assert engine.channel_swaps == 0
        engine.set_channel(CrowdModel(0.9))
        assert engine.channel_swaps == 1


class TestSessionLifecycle:
    def test_serial_session_has_no_evaluator(self):
        session = RefinementSession(dense_distribution(5, 16), CrowdModel(0.8))
        assert session.parallel_policy is None
        assert session.shared_evaluator() is None
        session.close()  # harmless on serial sessions

    def test_shared_evaluator_is_persistent_and_cached(self):
        session = RefinementSession(
            dense_distribution(5, 16), CrowdModel(0.8),
            parallel=ParallelPolicy(workers=2),
        )
        evaluator = session.shared_evaluator()
        assert isinstance(evaluator, PooledEvaluator)
        assert session.shared_evaluator() is evaluator
        session.merge(AnswerSet.from_mapping({"f0": True}))
        assert session.shared_evaluator() is evaluator  # survives merges
        session.close()

    def test_runtime_workers_give_the_session_a_private_pool(self):
        runtime = RuntimeOptions(workers=2, parallel_threshold=0)
        with RefinementSession(
            dense_distribution(5, 16), CrowdModel(0.8), runtime=runtime
        ) as session:
            assert session.parallel_policy == runtime.parallel_policy
            evaluator = session.shared_evaluator()
            assert evaluator is not None and not evaluator.degraded
            assert evaluator.worker_crashes == 0
            assert evaluator.pool_rebuilds == 0
            assert evaluator.breaker_trips == 0

    def test_policy_and_shared_pool_are_exclusive(self):
        with EvaluatorPool(ParallelPolicy(workers=2)) as pool:
            with pytest.raises(SelectionError, match="evaluator_pool"):
                RefinementSession(
                    dense_distribution(5, 16), CrowdModel(0.8),
                    parallel=ParallelPolicy(workers=2), evaluator_pool=pool,
                )

    def test_session_pool_close_releases_every_session(self):
        pool = SessionPool()
        policy = ParallelPolicy(workers=2)
        first = pool.add("a", dense_distribution(5, 16), CrowdModel(0.8), parallel=policy)
        second = pool.add("b", dense_distribution(5, 16, seed=1), CrowdModel(0.8))
        first_evaluator = first.shared_evaluator()
        assert first_evaluator is not None
        with pool:
            pass
        assert first.shared_evaluator() is not first_evaluator
        assert second.shared_evaluator() is None

    def test_greedy_family_takes_no_parallel_keyword(self):
        # Pools belong to sessions; selectors carry no policy of their own.
        for selector_type in (
            GreedySelector, LazyGreedySelector, PrunedPreprocessingGreedySelector
        ):
            with pytest.raises(TypeError):
                selector_type(parallel=ParallelPolicy(workers=2))


@pytest.mark.parallel
class TestNoLeakedWorkers:
    """Satellite regression: pools die with their owner, even on exceptions."""

    def test_evaluator_context_reclaims_pool_when_worker_raises(self):
        dist = dense_distribution(8, 64)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with pytest.raises(Exception):
            with EvaluatorPool(policy) as pool:
                # Unknown fact ids make the workers raise mid-scan; the
                # context manager must still terminate the forked pool.
                pool.attach(engine).evaluate(
                    engine.initial_state(), ["f0", "no-such-fact"]
                )
        assert multiprocessing.active_children() == []

    def test_engine_pool_reclaimed_when_selector_raises_mid_scan(self):
        class ExplodingGreedy(GreedySelector):
            def _runner(self, engine, k, candidates, evaluator):
                evaluator.evaluate(engine.initial_state(), list(candidates))
                raise RuntimeError("boom")

        dist = dense_distribution(8, 64)
        engine = CrowdFusionEngine(
            ExplodingGreedy(), CrowdModel(0.8), budget=4, tasks_per_round=2,
            parallel=ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL),
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(dist, lambda task_ids: scripted_answers(task_ids, 0))
        assert multiprocessing.active_children() == []

    def test_session_context_reclaims_persistent_pool_on_exception(self):
        class ExplodingGreedy(GreedySelector):
            def _runner(self, engine, k, candidates, evaluator):
                evaluator.evaluate(engine.initial_state(), list(candidates))
                raise RuntimeError("boom")

        dist = dense_distribution(8, 64)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with pytest.raises(RuntimeError, match="boom"):
            with RefinementSession(dist, CrowdModel(0.8), parallel=policy) as session:
                session.select(GreedySelector(), 2)  # forks the persistent pool
                assert multiprocessing.active_children() != []
                session.select(ExplodingGreedy(), 2)
        assert multiprocessing.active_children() == []

    def test_crowdfusion_engine_releases_pool_when_provider_raises(self):
        dist = dense_distribution(8, 64)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        engine = CrowdFusionEngine(
            GreedySelector(), CrowdModel(0.8), budget=6, tasks_per_round=2,
            parallel=policy,
        )

        calls = {"count": 0}

        def provider(task_ids):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("platform down")
            return scripted_answers(task_ids, calls["count"])

        with pytest.raises(RuntimeError, match="platform down"):
            engine.run(dist, provider)
        assert multiprocessing.active_children() == []


@pytest.mark.parallel
class TestPersistentPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_multi_round_greedy_matches_serial_session(self, workers):
        dist = dense_distribution(12, 512, seed=3)
        crowd = CrowdModel(0.8)
        serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())
        policy = ParallelPolicy(workers=workers, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, parallel=policy) as session:
            persistent = run_rounds(session, GreedySelector())
        assert_histories_match(serial, persistent)
        if workers >= 2:
            # Rounds after the first prove the snapshot ring: the posterior
            # changed, the pool did not re-fork, selections still match.
            assert all(stats.parallel_evaluations > 0 for _, _, stats in persistent)
            assert all(stats.workers == workers for _, _, stats in persistent)

    def test_runtime_workers_pool_matches_serial(self):
        dist = dense_distribution(16, 2048, seed=11)
        crowd = CrowdModel(0.82)
        serial = run_rounds(
            RefinementSession(dist, crowd), GreedySelector(), rounds=3, k=2
        )
        runtime = RuntimeOptions(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, runtime=runtime) as session:
            pooled = run_rounds(session, GreedySelector(), rounds=3, k=2)
        assert_histories_match(serial, pooled)

    def test_multi_round_heterogeneous_channels(self):
        dist = dense_distribution(10, 256, seed=4)
        channel = heterogeneous_channel(dist.fact_ids)
        serial = run_rounds(RefinementSession(dist, channel), GreedySelector())
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, channel, parallel=policy) as session:
            persistent = run_rounds(session, GreedySelector())
        assert_histories_match(serial, persistent)

    def test_multi_round_pruning_variant(self):
        dist = dense_distribution(11, 256, seed=5)
        crowd = CrowdModel(0.75)
        serial = run_rounds(
            RefinementSession(dist, crowd), PrunedPreprocessingGreedySelector()
        )
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, parallel=policy) as session:
            persistent = run_rounds(session, PrunedPreprocessingGreedySelector())
        assert_histories_match(serial, persistent)

    def test_recalibrating_session_matches_fresh_serial(self):
        """set_channel swaps must replay into the already-forked workers."""
        dist = dense_distribution(10, 256, seed=6)
        crowd = CrowdModel(0.8)
        serial = run_rounds(
            RefinementSession(dist, crowd, runtime=RECALIBRATE), GreedySelector()
        )
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(
            dist, crowd, runtime=RECALIBRATE, parallel=policy
        ) as session:
            persistent = run_rounds(session, GreedySelector())
            assert session.channel is not crowd  # a swap actually happened
        assert_histories_match(serial, persistent)

    def test_crowdfusion_engine_persistent_run_matches_serial(self):
        dist = dense_distribution(12, 512, seed=7)
        crowd = CrowdModel(0.8)

        def provider(task_ids):
            return scripted_answers(task_ids, len(task_ids))

        serial = CrowdFusionEngine(
            GreedySelector(), crowd, budget=8, tasks_per_round=2
        ).run(dist, provider)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        persistent = CrowdFusionEngine(
            GreedySelector(), crowd, budget=8, tasks_per_round=2,
            parallel=policy,
        ).run(dist, provider)
        assert [r.task_ids for r in persistent.rounds] == [
            r.task_ids for r in serial.rounds
        ]
        assert persistent.final_utility == pytest.approx(serial.final_utility, abs=1e-9)
        assert multiprocessing.active_children() == []


@pytest.mark.parallel
class TestParallelLazyGreedy:
    """Batch-refresh CELF: same selections as the sequential heap."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_single_selection_matches_sequential_heap(self, workers):
        dist = dense_distribution(12, 512, seed=8)
        crowd = CrowdModel(0.8)
        serial = LazyGreedySelector().select(dist, crowd, 5)
        policy = ParallelPolicy(workers=workers, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, parallel=policy) as session:
            parallel = session.select(LazyGreedySelector(), 5)
        assert parallel.task_ids == serial.task_ids
        assert abs(parallel.objective - serial.objective) < 1e-9
        assert parallel.stats.parallel_evaluations > 0
        # Waves may refresh a few extra stale candidates, never fewer.
        assert parallel.stats.candidate_evaluations >= serial.stats.candidate_evaluations

    def test_lazy_matches_plain_greedy_under_waves(self):
        dist = dense_distribution(11, 256, seed=9)
        crowd = CrowdModel(0.8)
        plain = GreedySelector().select(dist, crowd, 4)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, parallel=policy) as session:
            waves = session.select(LazyGreedySelector(), 4)
        assert waves.task_ids == plain.task_ids
        assert abs(waves.objective - plain.objective) < 1e-9

    def test_multi_round_lazy_on_persistent_pool(self):
        dist = dense_distribution(12, 512, seed=10)
        channel = heterogeneous_channel(dist.fact_ids)
        serial = run_rounds(RefinementSession(dist, channel), LazyGreedySelector())
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, channel, parallel=policy) as session:
            persistent = run_rounds(session, LazyGreedySelector())
        assert_histories_match(serial, persistent)

    def test_below_threshold_waves_degenerate_to_sequential_stats(self):
        """With the pool elected off, the session must not change *anything*:
        a selection under the threshold never touches the pool, so even the
        lazy skip counts match the plain serial selector exactly."""
        dist = dense_distribution(10, 128, seed=11)
        crowd = CrowdModel(0.8)
        serial = LazyGreedySelector().select(dist, crowd, 4)
        # Default threshold: every wave stays serial.
        with RefinementSession(
            dist, crowd, parallel=ParallelPolicy(workers=4)
        ) as session:
            guarded = session.select(LazyGreedySelector(), 4)
        assert guarded.task_ids == serial.task_ids
        assert guarded.objective == serial.objective
        assert guarded.stats.workers == 0
        assert guarded.stats.parallel_evaluations == 0
        assert guarded.stats.candidate_evaluations == serial.stats.candidate_evaluations
        assert guarded.stats.skipped_evaluations == serial.stats.skipped_evaluations


@pytest.mark.parallel
class TestSessionInterplayOnPersistentPool:
    """Satellite: batched queries and re-calibration ride the persistent pool."""

    def test_select_queries_matches_fresh_engines(self):
        dist = dense_distribution(10, 256, seed=12)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f0", "f4")), Query.of(("f2",)), Query.of(("f6", "f8"))]
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, parallel=policy) as session:
            session.select(GreedySelector(), 3)  # fork the pool first
            session.merge(AnswerSet.from_mapping({"f0": True, "f5": False}))
            batched = session.select_queries(queries, 3)
            posterior = session.distribution
        for query, result in zip(queries, batched):
            fresh = QueryGreedySelector(query).select(posterior, crowd, 3)
            assert result.task_ids == fresh.task_ids
            assert abs(result.objective - fresh.objective) < 1e-9

    def test_session_pool_select_queries_on_persistent_sessions(self):
        dist = dense_distribution(9, 128, seed=13)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f0",)), Query.of(("f3", "f5"))]
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with SessionPool() as pool:
            pool.add("entity", dist, crowd, parallel=policy)
            pool["entity"].select(GreedySelector(), 2)
            pooled = pool.select_queries("entity", queries, 2)
        direct = RefinementSession(dist, crowd).select_queries(queries, 2)
        assert [r.task_ids for r in pooled] == [r.task_ids for r in direct]
        assert multiprocessing.active_children() == []

    def test_recalibrated_select_queries_after_channel_swap(self):
        dist = dense_distribution(9, 128, seed=14)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f1", "f2")), Query.of(("f7",))]
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)

        def drive(session):
            for round_index in range(2):
                result = session.select(GreedySelector(), 2)
                session.merge(scripted_answers(result.task_ids, round_index))
            return session.select_queries(queries, 2)

        serial_session = RefinementSession(dist, crowd, runtime=RECALIBRATE)
        serial = drive(serial_session)
        with RefinementSession(
            dist, crowd, runtime=RECALIBRATE, parallel=policy
        ) as session:
            persistent = drive(session)
        for serial_result, result in zip(serial, persistent):
            assert result.task_ids == serial_result.task_ids
            assert abs(result.objective - serial_result.objective) < 1e-9
