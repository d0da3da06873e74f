"""The lazily built ``int32`` partition of a :class:`SelectionState`.

A state records only its base state and the bit columns committed since;
its ``projection`` and ``combined`` are refined on first read, from the
nearest ancestor that was read.  The contract pinned here, for every case
of ``test_batched_scan.py`` and ``test_histogram_scan.py``:

* however a state was made — ``extend`` with or without a scan, a pool
  worker's ``_refresh_state`` from a prefix state or from scratch, a chain
  of states nothing read — its ``projection`` and ``combined`` equal the
  eager ``int64`` refinement (one bit per task, most recent least
  significant, keyed ``(cell << width) | projection``), are ``int32`` and
  are read-only;
* a serial k=3 selection refines k−1 partitions (its last state is never
  scanned, and the empty set's partition is the engine's);
* the parent of a pooled k=3 selection allocates no array of ``rows × 4``
  bytes or more: its scans run in the workers, so it reads no partition.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.selection import ParallelPolicy, RefinementSession, get_selector
from repro.core.selection.engine import CandidateScan, EntropyEngine
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from tests.core.selection.test_batched_scan import MAX_WIDTH, remaining
from tests.core.selection.test_histogram_scan import ALL_CASES, case_engine, case_spec


def eager_partition(engine, task_ids):
    """``(projection, combined)`` as plain ``int64`` lists, one bit per task."""
    projection = np.zeros(engine.support_masks.shape[0], dtype=np.int64)
    for fact_id in task_ids:
        projection = (projection << 1) | engine.bits(fact_id)
    cells = engine._cell_index.astype(np.int64)
    combined = (cells << len(task_ids)) | projection
    return projection.tolist(), combined.tolist()


def assert_partition(engine, state):
    projection, combined = eager_partition(engine, state.task_ids)
    for array, expected in ((state.projection, projection), (state.combined, combined)):
        assert array.dtype == np.int32
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
        assert array.tolist() == expected


def task_order(engine):
    return engine.distribution.fact_ids[:MAX_WIDTH]


def unread_chain(case, monkeypatch, width=MAX_WIDTH):
    """An engine and a chain of ``width`` commits none of whose partitions was read.

    Each commit takes its tables from a twin engine's scan, as a pooled
    parent takes them from its workers' scans.
    """
    distribution, channel, interest = case_spec(case, monkeypatch)
    engine = EntropyEngine(distribution, channel, interest_ids=interest)
    twin = EntropyEngine(distribution, channel, interest_ids=interest)
    state, twin_state = engine.initial_state(), twin.initial_state()
    chain = [state]
    for fact_id in task_order(engine)[:width]:
        scored = twin.scan(twin_state, [fact_id])
        scan = CandidateScan(
            state, scored.fact_ids, scored.entropies, scored.joint_entropies, scored._blocks
        )
        state = engine.extend(state, fact_id, scan)
        twin_state = twin.extend(twin_state, fact_id, scored)
        chain.append(state)
    assert all(state._partition is None for state in chain)
    return engine, chain


def peer(state):
    """The arguments of ``_refresh_state`` after the worker's own state."""
    return (
        state.task_ids,
        state.table,
        state.entropy,
        state.joint_entropy,
        state.bit_accuracies,
    )


@pytest.mark.parametrize("case", ALL_CASES)
class TestPartitions:
    def test_extend_with_and_without_a_scan(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        state = engine.initial_state()
        assert_partition(engine, state)
        for fact_id in task_order(engine):
            scan = engine.scan(state, remaining(engine, state))
            from_scan = engine.extend(state, fact_id, scan)
            rescored = engine.extend(state, fact_id)
            assert_partition(engine, rescored)
            assert_partition(engine, from_scan)
            state = from_scan

    def test_chains_that_were_never_read(self, case, monkeypatch):
        engine, chain = unread_chain(case, monkeypatch)
        # The last state first: every ancestor stays unread while it builds.
        assert_partition(engine, chain[-1])
        assert all(state._partition is None for state in chain[:-1])
        for state in chain:
            assert_partition(engine, state)
        # Reading each state of a second chain in order builds from the last.
        engine, chain = unread_chain(case, monkeypatch)
        for state in chain:
            assert_partition(engine, state)

    def test_refresh_from_a_prefix(self, case, monkeypatch):
        parent_engine, parent = unread_chain(case, monkeypatch)
        distribution, channel, interest = case_spec(case, monkeypatch)
        worker = EntropyEngine(distribution, channel, interest_ids=interest)
        state = None
        # One task per dispatch, then two at once, as a worker that sat out.
        for target in (parent[1], parent[2], parent[4], parent[MAX_WIDTH]):
            refreshed = worker._refresh_state(state, *peer(target))
            assert refreshed.task_ids == target.task_ids
            assert refreshed.table is target.table
            assert refreshed._base is state
            assert_partition(worker, refreshed)
            assert worker._refresh_state(refreshed, *peer(target)) is refreshed
            state = refreshed
        # A prefix nothing read yet: the new state builds through it.
        unread = worker._refresh_state(None, *peer(parent[2]))
        refreshed = worker._refresh_state(unread, *peer(parent[5]))
        assert_partition(worker, refreshed)
        assert unread._partition is None
        assert all(state._partition is None for state in parent)

    def test_refresh_from_another_selection(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        other = engine.initial_state()
        for fact_id in engine.distribution.fact_ids[-2:]:
            other = engine.extend(other, fact_id)
        assert_partition(engine, other)
        for target in unread_chain(case, monkeypatch)[1][1:]:
            for start in (None, other):
                refreshed = engine._refresh_state(start, *peer(target))
                assert refreshed._base is None
                assert len(refreshed._columns) == target.width
                assert_partition(engine, refreshed)


def count_refinements(monkeypatch):
    """A list that grows by one per partition refined from bit columns."""
    refined = []
    partition = EntropyEngine._partition

    def counting(engine, projection, columns, width):
        if columns:
            refined.append(width)
        return partition(engine, projection, columns, width)

    monkeypatch.setattr(EntropyEngine, "_partition", counting)
    return refined


@pytest.mark.parametrize("case", ["uniform", "interest_uniform", "natural_int64"])
def test_a_serial_selection_refines_k_minus_one_partitions(case, monkeypatch):
    distribution, channel, interest = case_spec(case, monkeypatch)
    refined = count_refinements(monkeypatch)
    session = RefinementSession(distribution, channel, interest_ids=interest)
    result = session.select(get_selector("greedy"), 3)
    assert len(result.task_ids) == 3
    assert refined == [1, 2]


@pytest.mark.parallel
def test_a_pooled_parent_allocates_no_partition():
    rows = 1 << 18
    distribution = generate_scale_distribution(
        ScaleCorpusConfig(num_facts=24, support_size=rows, seed=7)
    )
    policy = ParallelPolicy(workers=2, parallel_threshold=0)
    selector = get_selector("greedy")
    with RefinementSession(distribution, CrowdModel(0.8), parallel=policy) as session:
        # The first round forks the pool and merges a posterior; the bit
        # columns are a session-long cache, so warm all of them.
        first = session.select(selector, 3)
        session.merge(AnswerSet.from_mapping({f: True for f in first.task_ids}))
        for fact_id in distribution.fact_ids:
            session.engine.bits(fact_id)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            result = session.select(selector, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.parallel_evaluations > 0
        assert len(result.task_ids) == 3
    assert peak - baseline < rows * 4
