"""Equivalence suite for parallel candidate sharding and batched queries.

The parallel subsystem's contract is *pure acceleration*: sharding a greedy
iteration's candidate scan across a fork-shared worker pool must select
exactly the task sets — same ids, same order, objectives within 1e-9 — that
the serial scan selects, across worker counts, channel models and the
pruning variant; and batched multi-query scoring through one session's
shared caches must match one fresh engine per query.  A one-shot parallel
selection is a session with a policy: ``with RefinementSession(dist, crowd,
parallel=policy) as session: session.select(selector, k)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.query import Query
from repro.core.selection import (
    EvaluatorPool,
    GreedySelector,
    ParallelPolicy,
    QueryGreedySelector,
    RefinementSession,
    SessionPool,
    get_selector,
)
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.parallel import DEFAULT_PARALLEL_THRESHOLD, fork_available
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.exceptions import SelectionError


@st.composite
def coarse_distributions(draw, max_facts=6):
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

#: Forces the pool for any scan with at least two candidates.
FORCE_PARALLEL = 0


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


def pooled_select(selector, dist, crowd, k, policy):
    """One selection on a one-shot session that owns a pool under ``policy``."""
    with RefinementSession(dist, crowd, parallel=policy) as session:
        return session.select(selector, k)


class TestParallelPolicy:
    def test_validation(self):
        with pytest.raises(SelectionError):
            ParallelPolicy(workers=0)
        with pytest.raises(SelectionError):
            ParallelPolicy(parallel_threshold=-1)

    def test_single_worker_never_parallelises(self):
        policy = ParallelPolicy(workers=1, parallel_threshold=0)
        assert not policy.should_parallelise(1000, 1 << 20)

    def test_threshold_gates_on_scan_work(self):
        policy = ParallelPolicy(workers=4, parallel_threshold=1 << 10)
        if not fork_available():  # pragma: no cover - non-fork platforms
            pytest.skip("fork start method unavailable")
        assert policy.should_parallelise(num_candidates=64, support_size=1 << 10)
        assert not policy.should_parallelise(num_candidates=2, support_size=64)

    def test_lone_candidate_stays_serial(self):
        policy = ParallelPolicy(workers=4, parallel_threshold=0)
        assert not policy.should_parallelise(num_candidates=1, support_size=1 << 20)

    def test_chunk_size_resolution(self):
        # Four chunks per worker.
        assert ParallelPolicy(workers=2).resolved_chunk_size(100) == 13
        assert ParallelPolicy(workers=8).resolved_chunk_size(3) >= 1

    def test_default_threshold_spares_table5_workloads(self):
        # The Table-V hot path (tens of candidates, few-thousand-row support)
        # must stay under the default threshold, or small runs would fork.
        assert 64 * 4096 < DEFAULT_PARALLEL_THRESHOLD


class TestAutoSerialThreshold:
    """A parallel-configured selector below threshold is exactly serial."""

    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_below_threshold_matches_serial_without_forking(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        serial = GreedySelector().select(dist, crowd, k)
        result = pooled_select(
            GreedySelector(), dist, crowd, k, ParallelPolicy(workers=4)
        )
        assert result.task_ids == serial.task_ids
        assert result.objective == serial.objective
        assert result.stats.workers == 0
        assert result.stats.chunk_size == 0
        assert result.stats.parallel_evaluations == 0

    def test_evaluator_reports_serial_below_threshold(self):
        dist = dense_distribution(8, 64)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        with EvaluatorPool(ParallelPolicy(workers=4)) as pool:
            evaluator = pool.attach(engine)
            state = engine.initial_state()
            assert evaluator.evaluate(state, list(dist.fact_ids)) is None
            assert evaluator.workers == 0
            assert not pool.forked


@pytest.mark.parallel
class TestParallelEquivalence:
    @given(
        coarse_distributions(),
        accuracies,
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(["greedy", "greedy_prune_pre"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_parallel_matches_serial(self, dist, accuracy, k, workers, name):
        crowd = CrowdModel(accuracy)
        serial = get_selector(name).select(dist, crowd, k)
        policy = ParallelPolicy(workers=workers, parallel_threshold=FORCE_PARALLEL)
        result = pooled_select(get_selector(name), dist, crowd, k, policy)
        assert result.task_ids == serial.task_ids
        assert abs(result.objective - serial.objective) < 1e-9
        assert result.stats.candidate_evaluations == serial.stats.candidate_evaluations
        assert result.stats.pruned_facts == serial.stats.pruned_facts

    @given(coarse_distributions(max_facts=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_parallel_matches_serial_heterogeneous(self, dist, k):
        channel = heterogeneous_channel(dist.fact_ids)
        serial = GreedySelector().select(dist, channel, k)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        result = pooled_select(GreedySelector(), dist, channel, k, policy)
        assert result.task_ids == serial.task_ids
        assert abs(result.objective - serial.objective) < 1e-9

    def test_worker_entropies_are_bit_identical(self):
        dist = dense_distribution(10, 256, seed=3)
        crowd = CrowdModel(0.8)
        engine = EntropyEngine(dist, crowd)
        state = engine.initial_state()
        candidates = list(dist.fact_ids)
        reference_engine = EntropyEngine(dist, crowd)
        reference_state = reference_engine.initial_state()
        singles = [
            reference_engine.scan(reference_state, [fact_id]) for fact_id in candidates
        ]
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        with EvaluatorPool(policy) as pool:
            evaluator = pool.attach(engine)
            scored = evaluator.evaluate(state, candidates)
        # Workers adopt the parent state's table and run the identical float
        # operations, so the entropies and the answer tables agree to the
        # last bit, not merely within tolerance.
        assert scored.state is state
        assert scored.entropies == [single.entropies[0] for single in singles]
        assert scored.joint_entropies == [single.joint_entropies[0] for single in singles]
        for fact_id, single in zip(candidates, singles):
            pooled_false, pooled_true, _, _ = scored.extension(fact_id)
            single_false, single_true, _, _ = single.extension(fact_id)
            assert pooled_false.tobytes() == single_false.tobytes()
            assert pooled_true.tobytes() == single_true.tobytes()
        assert evaluator.parallel_evaluations == len(candidates)

    def test_session_selection_with_parallel_policy(self):
        dist = dense_distribution(12, 512, seed=5)
        crowd = CrowdModel(0.8)
        serial_session = RefinementSession(dist, crowd)
        serial = serial_session.select(GreedySelector(), 4)
        policy = ParallelPolicy(workers=2, parallel_threshold=FORCE_PARALLEL)
        result = pooled_select(GreedySelector(), dist, crowd, 4, policy)
        assert result.task_ids == serial.task_ids
        assert abs(result.objective - serial.objective) < 1e-9
        assert result.stats.workers == 2
        assert result.stats.parallel_evaluations > 0


@pytest.mark.parallel
@pytest.mark.slow
class TestParallelEquivalenceAtScale:
    def test_scale_corpus_parallel_matches_serial(self):
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=32, support_size=1 << 20, seed=11)
        )
        crowd = CrowdModel(0.8)
        serial = GreedySelector().select(dist, crowd, 2)
        for workers in (2, 4):
            result = pooled_select(
                GreedySelector(), dist, crowd, 2, ParallelPolicy(workers=workers)
            )
            assert result.task_ids == serial.task_ids
            assert abs(result.objective - serial.objective) < 1e-9
            assert result.stats.workers == workers
            assert result.stats.parallel_evaluations > 0


class TestBatchedMultiQuery:
    @given(
        coarse_distributions(max_facts=5),
        accuracies,
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_queries_match_per_query_engines(self, dist, accuracy, k, data):
        crowd = CrowdModel(accuracy)
        num_queries = data.draw(st.integers(min_value=1, max_value=3))
        queries = [
            Query.of(
                data.draw(
                    st.lists(
                        st.sampled_from(list(dist.fact_ids)),
                        min_size=1,
                        max_size=min(3, dist.num_facts),
                        unique=True,
                    )
                )
            )
            for _ in range(num_queries)
        ]
        session = RefinementSession(dist, crowd)
        batched = session.select_queries(queries, k)
        for query, result in zip(queries, batched):
            fresh = QueryGreedySelector(query).select(dist, crowd, k)
            assert result.task_ids == fresh.task_ids
            assert abs(result.objective - fresh.objective) < 1e-9

    def test_batched_queries_after_merge_match_materialised_posterior(self):
        dist = dense_distribution(9, 128, seed=7)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f0", "f4")), Query.of(("f2",)), Query.of(("f6", "f8"))]
        session = RefinementSession(dist, crowd)
        session.merge(AnswerSet.from_mapping({"f0": True, "f5": False}))
        batched = session.select_queries(queries, 3)
        posterior = session.distribution
        for query, result in zip(queries, batched):
            fresh = QueryGreedySelector(query).select(posterior, crowd, 3)
            assert result.task_ids == fresh.task_ids
            assert abs(result.objective - fresh.objective) < 1e-9

    def test_views_share_the_bit_column_cache(self):
        dist = dense_distribution(8, 64, seed=2)
        session = RefinementSession(dist, CrowdModel(0.8))
        view_a = session.engine_for_interest(("f0", "f1"))
        view_b = session.engine_for_interest(("f5",))
        assert view_a._bits is session.engine._bits
        assert view_b._bits is session.engine._bits
        # The cached view is reused until the next merge invalidates it.
        assert session.engine_for_interest(("f0", "f1")) is view_a
        session.merge(AnswerSet.from_mapping({"f0": True}))
        assert session.engine_for_interest(("f0", "f1")) is not view_a

    def test_matching_interest_set_uses_the_session_engine(self):
        dist = dense_distribution(6, 32, seed=4)
        session = RefinementSession(dist, CrowdModel(0.8), interest_ids=("f1", "f3"))
        assert session.engine_for_interest(("f1", "f3")) is session.engine

    def test_views_refuse_reweight(self):
        dist = dense_distribution(6, 32, seed=6)
        session = RefinementSession(dist, CrowdModel(0.8))
        view = session.engine_for_interest(("f2",))
        with pytest.raises(SelectionError):
            view.reweight(np.ones(dist.support_size))

    def test_session_pool_batches_queries_by_key(self):
        dist = dense_distribution(7, 64, seed=8)
        crowd = CrowdModel(0.8)
        pool = SessionPool()
        pool.add("entity", dist, crowd)
        queries = [Query.of(("f0",)), Query.of(("f3", "f5"))]
        pooled = pool.select_queries("entity", queries, 2)
        direct = RefinementSession(dist, crowd).select_queries(queries, 2)
        assert [r.task_ids for r in pooled] == [r.task_ids for r in direct]
