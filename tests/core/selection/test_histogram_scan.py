"""Differential suite: the histogram candidate scan.

Once the support holds at least ``cells · 2^width · 2^8 · 4`` rows,
:meth:`EntropyEngine.scan` stops grouping every candidate's weighted bit
column with one offset ``bincount``.  It runs one weighted ``bincount`` per
8-bit mask slice instead, and reads each candidate's true mass off the slice
histogram.  The summation order changes, so the floats may differ from the
offset ``bincount``'s in their last bits; ``test_batched_scan.py`` keeps
pinning those, because its small supports stay on the offset path.

The contract pinned here, for every case:

* the scalar oracle (``scalar_extension``) agrees on the answer tables and
  the entropies within ``SCALAR_TOLERANCE``;
* a candidate's floats never depend on its block: reversed order,
  singletons, every split of the candidate list and every cap on the slice
  products give the same bits;
* :meth:`EntropyEngine.extend` from the scan equals ``extend`` without a
  scan, or with a scan that never scored the fact, bit for bit;
* a pooled session's scans equal the serial scan as float hex — entropies,
  joint entropies and every candidate's answer tables — for candidate lists
  in any order, also when a worker sat out earlier dispatches or the
  channel changed mid-session;
* a pooled iteration builds each slice histogram once: the workers score
  one block per chunk of whole mask slices, and the parent scores none;
* selection picks ``greedy_reference``'s task ids on uniform channels, and
  the scalar-oracle-driven selection's on heterogeneous channels and for
  facts of interest, with objectives within 1e-9.

The path is forced on the nine case families of ``test_batched_scan.py`` by
monkeypatching ``_HISTOGRAM_MIN_FILL`` to zero, and it engages on its own on
the ``natural_*`` supports of 2^12 rows and more.
"""

import functools
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.query import Query
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    ParallelPolicy,
    PooledEvaluator,
    QueryGreedySelector,
    RefinementSession,
    get_selector,
)
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.parallel import _chunk_indices
from tests.core.selection.test_batched_scan import (
    CASES,
    INTEREST,
    MAX_WIDTH,
    SCALAR_TOLERANCE,
    engine_for,
    grown_states,
    hexes,
    on_scalar_oracle,
    per_fact_channel,
    remaining,
    scalar_extension,
    sparse_distribution,
)

#: ``test_batched_scan.py``'s case families, plus facts of interest under
#: heterogeneous channels with identity channels mixed in.
FORCED_CASES = CASES + ("interest_heterogeneous_identity",)

NATURAL_CASES = ("natural_int64", "natural_planes", "natural_interest")

ALL_CASES = FORCED_CASES + NATURAL_CASES

#: Widths grown on the natural supports: past the histogram rule's reach, so
#: their selections cross from one grouping path to the other.
NATURAL_MAX_WIDTH = 4

SELECTION_K = 3


@functools.lru_cache(maxsize=None)
def natural_spec(case):
    """``(distribution, channel, interest_ids)`` of a support that engages alone."""
    if case == "natural_int64":
        return sparse_distribution(num_facts=14, support=1 << 12, seed=21), CrowdModel(0.8), None
    if case == "natural_planes":
        return sparse_distribution(num_facts=70, support=1 << 12, seed=22), CrowdModel(0.75), None
    # Two facts of interest give four cells, so widths 0 and 1 use histograms.
    distribution = sparse_distribution(num_facts=14, support=1 << 13, seed=23)
    return distribution, per_fact_channel(distribution.fact_ids, seed=24), ("f0", "f3")


def case_spec(case, monkeypatch):
    """``(distribution, channel, interest_ids)`` of ``case``, its path forced on."""
    if case in NATURAL_CASES:
        return natural_spec(case)
    monkeypatch.setattr(engine_module, "_HISTOGRAM_MIN_FILL", 0)
    engine = engine_for(case)
    interest = INTEREST if case.startswith("interest_") else None
    return engine.distribution, engine.crowd, interest


def case_engine(case, monkeypatch):
    distribution, channel, interest = case_spec(case, monkeypatch)
    return EntropyEngine(distribution, channel, interest_ids=interest)


def case_states(case, engine):
    width = NATURAL_MAX_WIDTH if case in NATURAL_CASES else MAX_WIDTH
    return grown_states(engine, max_width=width)


def sampled(candidates, count=12):
    """About ``count`` candidates spread over the list (the scalar loops are slow)."""
    return candidates[:: max(1, len(candidates) // count)]


def scan_hexes(scan):
    """Every float of ``scan`` as hex: entropies, joint entropies, and each
    candidate's answer tables and entropies as :meth:`extension` finds them."""
    extensions = []
    for fact_id in scan.fact_ids:
        extension = scan.extension(fact_id)
        assert extension is not None, f"the scan kept no tables for {fact_id}"
        answer_false, answer_true, task, joint = extension
        extensions.append(
            (hexes(answer_false.ravel()), hexes(answer_true.ravel()), task.hex(), joint.hex())
        )
    return hexes(scan.entropies), hexes(scan.joint_entropies), extensions


def shuffled(candidates, seed):
    """``candidates`` in a seeded random order (pool chunks then interleave)."""
    order = np.random.default_rng(seed).permutation(len(candidates))
    return [candidates[index] for index in order]


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0 for position, fact_id in enumerate(task_ids)}
    )


def assert_same_state(left, right):
    assert left.task_ids == right.task_ids
    assert np.array_equal(left.table, right.table)
    assert left.entropy.hex() == right.entropy.hex()
    assert left.joint_entropy.hex() == right.joint_entropy.hex()
    assert np.array_equal(left.combined, right.combined)


@pytest.mark.parametrize("case", ALL_CASES)
class TestHistogramScan:
    def test_path_engages(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        uses = [engine._uses_histograms(state) for state in case_states(case, engine)]
        if case in NATURAL_CASES:
            # Histograms while the support fills them, offset bincount after.
            assert uses[0] and not uses[-1]
            assert uses == sorted(uses, reverse=True)
        else:
            assert all(uses)

    def test_scalar_oracle_agrees(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        for state in case_states(case, engine):
            candidates = remaining(engine, state)
            scan = engine.scan(state, candidates)
            for fact_id in sampled(candidates):
                index = candidates.index(fact_id)
                answer_false, answer_true, task, joint = scalar_extension(
                    engine, state, fact_id
                )
                kept = scan.extension(fact_id)
                np.testing.assert_allclose(kept[0], answer_false, rtol=0, atol=SCALAR_TOLERANCE)
                np.testing.assert_allclose(kept[1], answer_true, rtol=0, atol=SCALAR_TOLERANCE)
                assert scan.entropies[index] == pytest.approx(task, abs=SCALAR_TOLERANCE)
                assert scan.joint_entropies[index] == pytest.approx(
                    joint, abs=SCALAR_TOLERANCE
                )

    def test_block_independence(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        for state in case_states(case, engine):
            candidates = remaining(engine, state)
            full = engine.scan(state, candidates)
            expected = (hexes(full.entropies), hexes(full.joint_entropies))

            def assert_scores(entropies, joint_entropies):
                assert (hexes(entropies), hexes(joint_entropies)) == expected

            backwards = engine.scan(state, candidates[::-1])
            assert_scores(backwards.entropies[::-1], backwards.joint_entropies[::-1])
            singles = [engine.scan(state, [fact_id]) for fact_id in candidates]
            assert_scores(
                [single.entropies[0] for single in singles],
                [single.joint_entropies[0] for single in singles],
            )
            for split in range(1, len(candidates)):
                head = engine.scan(state, candidates[:split])
                tail = engine.scan(state, candidates[split:])
                assert_scores(
                    head.entropies + tail.entropies,
                    head.joint_entropies + tail.joint_entropies,
                )

    def test_slice_product_cap_does_not_move_any_bit(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        for state in case_states(case, engine):
            candidates = remaining(engine, state)
            expected = engine.scan(state, candidates)
            with monkeypatch.context() as patch:
                # One candidate per slice product, and no tables kept.
                patch.setattr(engine_module, "_SCAN_BLOCK_MAX_ENTRIES", 1)
                capped = engine.scan(state, candidates)
            assert hexes(capped.entropies) == hexes(expected.entropies)
            assert hexes(capped.joint_entropies) == hexes(expected.joint_entropies)
            assert all(capped.extension(fact_id) is None for fact_id in candidates)
            assert_same_state(
                engine.extend(state, candidates[0], capped),
                engine.extend(state, candidates[0], expected),
            )

    def test_extend_from_scan_equals_extend_without(self, case, monkeypatch):
        engine = case_engine(case, monkeypatch)
        for state in case_states(case, engine)[:-1]:
            candidates = remaining(engine, state)
            fact_id = candidates[-1]
            scan = engine.scan(state, candidates)
            assert scan.extension(fact_id) is not None
            rescored = engine.extend(state, fact_id)
            assert_same_state(engine.extend(state, fact_id, scan), rescored)
            without = engine.scan(state, candidates[:-1])
            assert_same_state(engine.extend(state, fact_id, without), rescored)

    @pytest.mark.parallel
    def test_pooled_scans_equal_serial(self, case, monkeypatch):
        distribution, channel, interest = case_spec(case, monkeypatch)
        policy = ParallelPolicy(workers=2, parallel_threshold=0)
        with RefinementSession(
            distribution, channel, interest_ids=interest, parallel=policy
        ) as session:
            engine = session.engine
            evaluator = session.shared_evaluator()
            for width, state in enumerate(case_states(case, engine)):
                candidates = remaining(engine, state)
                # A shuffled list's chunks are not contiguous runs of it.
                for order in (candidates, shuffled(candidates, seed=width)):
                    pooled = evaluator.evaluate(state, order)
                    assert pooled is not None
                    assert scan_hexes(pooled) == scan_hexes(engine.scan(state, order))
            assert evaluator.parallel_evaluations > 0

    def test_selection_matches_oracle(self, case, monkeypatch):
        distribution, channel, interest = case_spec(case, monkeypatch)
        # The seed oracle walks Python dicts: keep the wide case's candidate
        # list short (every fourth fact still spans all nine mask slices).
        exclude = (
            distribution.fact_ids[1::4] + distribution.fact_ids[2::4] + distribution.fact_ids[3::4]
            if case == "natural_planes"
            else ()
        )
        if interest:
            selector = QueryGreedySelector(Query.of(interest))
        else:
            selector = get_selector("greedy")

        def run():
            return selector.select(distribution, channel, SELECTION_K, exclude)

        scanned = run()
        if interest is None and channel.uniform_accuracy is not None:
            oracle = get_selector("greedy_reference").select(
                distribution, channel, SELECTION_K, exclude
            )
        else:
            oracle = on_scalar_oracle(monkeypatch, run)
        assert scanned.task_ids
        assert oracle.task_ids == scanned.task_ids
        assert abs(oracle.objective - scanned.objective) <= 1e-9


def test_small_supports_keep_the_offset_bincount():
    """The bit-identity suite in ``test_batched_scan.py`` never takes this path."""
    for case in CASES:
        engine = engine_for(case)
        assert not any(engine._uses_histograms(state) for state in grown_states(engine))


@pytest.mark.parametrize("histograms", [False, True], ids=["offset", "histogram"])
@pytest.mark.parametrize("case", ["uniform", "interest_heterogeneous", "packed"])
def test_extend_with_a_scan_that_never_scored_the_fact(case, histograms, monkeypatch):
    """``extend`` scores an unscanned fact as a block of one, bit for bit."""
    if histograms:
        monkeypatch.setattr(engine_module, "_HISTOGRAM_MIN_FILL", 0)
    engine = engine_for(case)
    for state in grown_states(engine, max_width=MAX_WIDTH - 1):
        assert engine._uses_histograms(state) == histograms
        candidates = remaining(engine, state)
        fact_id = candidates[-1]
        without = engine.scan(state, candidates[:-1])
        assert without.extension(fact_id) is None
        assert_same_state(engine.extend(state, fact_id, without), engine.extend(state, fact_id))


class TestSliceCache:
    @pytest.mark.parametrize("case", ["uniform", "packed"])
    def test_slices_match_the_mask_bits(self, case):
        engine = engine_for(case)
        for position, fact_id in enumerate(engine.distribution.fact_ids):
            column = engine._mask_slice(position // 8)
            assert column.dtype == np.uint8
            bits = (column >> (position % 8)) & 1
            assert np.array_equal(bits, engine.bits(fact_id))

    def test_views_share_the_cache_through_reweights(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_HISTOGRAM_MIN_FILL", 0)
        engine = engine_for("uniform")
        engine.scan(engine.initial_state(), ["f0"])
        view = engine.interest_view(INTEREST)
        view.scan(view.initial_state(), ["f8"])
        engine.reweight(np.linspace(0.5, 1.5, engine.probabilities.shape[0]))
        engine.set_channel(CrowdModel(0.7))
        later = engine.interest_view(("f1",))
        # One cache object: a slice built through any view is warm everywhere.
        assert later._slices is view._slices is engine._slices
        assert sorted(engine._slices) == [0, 1]


# -- the pool on the histogram path ---------------------------------------------------


def slices_of(engine, candidates):
    return {position // 8 for position in engine.distribution.positions(candidates)}


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("case", ["uniform", "packed", "natural_planes"])
def test_histogram_chunks_hold_whole_slices(case, workers, monkeypatch):
    """Each chunk is one contiguous run of whole mask slices, one per worker."""
    engine = case_engine(case, monkeypatch)
    state = engine.initial_state()
    assert engine._uses_histograms(state)
    candidates = shuffled(remaining(engine, state), seed=workers)
    chunks = _chunk_indices(engine, state, candidates, ParallelPolicy(workers=workers))
    assert sorted(index for chunk in chunks for index in chunk) == list(range(len(candidates)))
    touched = [sorted(slices_of(engine, [candidates[i] for i in chunk])) for chunk in chunks]
    assert len(chunks) == min(workers, len(slices_of(engine, candidates)))
    # Disjoint, ascending, gap-free runs: no slice histogram is built twice.
    flat = [index for run in touched for index in run]
    assert flat == sorted(slices_of(engine, candidates))
    assert all(run == list(range(run[0], run[-1] + 1)) for run in touched)
    assert max(map(len, touched)) - min(map(len, touched)) <= 1


def test_offset_chunks_are_order_preserving_runs():
    engine = engine_for("uniform")
    state = engine.initial_state()
    assert not engine._uses_histograms(state)
    candidates = remaining(engine, state)
    chunks = _chunk_indices(engine, state, candidates, ParallelPolicy(workers=2))
    assert [list(chunk) for chunk in chunks] == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]


@pytest.mark.parallel
@pytest.mark.parametrize("case", ["uniform", "interest_heterogeneous", "packed", "natural_planes"])
def test_pooled_iterations_score_each_chunk_once(case, monkeypatch):
    """Per pooled iteration the parent scores nothing, each chunk one block."""
    distribution, channel, interest = case_spec(case, monkeypatch)
    parent = os.getpid()
    parent_blocks = []
    worker_blocks = multiprocessing.get_context("fork").Value("i", 0)
    score_block = EntropyEngine._score_block

    def spy(engine, state, fact_ids):
        if os.getpid() == parent:
            parent_blocks.append(tuple(fact_ids))
        else:
            with worker_blocks.get_lock():
                worker_blocks.value += 1
        return score_block(engine, state, fact_ids)

    # Installed before the pool forks, so every worker inherits the spy.
    monkeypatch.setattr(EntropyEngine, "_score_block", spy)
    workers = 2
    policy = ParallelPolicy(workers=workers, parallel_threshold=0)
    with RefinementSession(
        distribution, channel, interest_ids=interest, parallel=policy
    ) as session:
        engine = session.engine
        evaluator = session.shared_evaluator()
        state = engine.initial_state()
        for _iteration in range(3):
            assert engine._uses_histograms(state)
            candidates = remaining(engine, state)
            before = worker_blocks.value
            scan = evaluator.evaluate(state, candidates)
            assert scan is not None
            chunks = min(workers, len(slices_of(engine, candidates)))
            assert worker_blocks.value - before == chunks
            best = max(range(len(candidates)), key=scan.entropies.__getitem__)
            state = engine.extend(state, candidates[best], scan)
    assert parent_blocks == []


def selection_rounds(session, selector, rounds=3, k=3):
    """Per round: the task ids and the objective as float hex."""
    history = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        history.append((result.task_ids, result.objective.hex()))
        session.merge(scripted_answers(result.task_ids, round_index))
    return history


@pytest.mark.parallel
@pytest.mark.parametrize("recalibrate", [False, True], ids=["fixed", "recalibrated"])
def test_a_worker_that_sat_out_returns_serial_floats(recalibrate, monkeypatch):
    """Three workers and two chunks per dispatch: one worker always sits out.

    It catches up across committed tasks, merged posteriors and (when the
    session re-calibrates) channel swaps, and still scores serial floats.
    """
    monkeypatch.setattr(engine_module, "_HISTOGRAM_MIN_FILL", 0)
    distribution = sparse_distribution(num_facts=16, support=300, seed=31)
    channel = CrowdModel(0.8)
    runtime = RuntimeOptions(recalibrate=recalibrate)
    checked = []
    pooled_evaluate = PooledEvaluator.evaluate

    def checking(evaluator, state, candidates):
        scan = pooled_evaluate(evaluator, state, candidates)
        assert scan is not None
        engine = evaluator._engine
        assert len(slices_of(engine, candidates)) == 2
        assert scan_hexes(scan) == scan_hexes(engine.scan(state, candidates))
        checked.append(engine.channel_swaps)
        return scan

    monkeypatch.setattr(PooledEvaluator, "evaluate", checking)
    policy = ParallelPolicy(workers=3, parallel_threshold=0)
    serial = selection_rounds(
        RefinementSession(distribution, channel, runtime=runtime), get_selector("greedy"), rounds=4
    )
    with RefinementSession(
        distribution, channel, runtime=runtime, parallel=policy
    ) as session:
        pooled = selection_rounds(session, get_selector("greedy"), rounds=4)
        assert session.shared_evaluator().workers == 3
    assert pooled == serial
    assert len(checked) >= 8
    assert (max(checked) > 0) == recalibrate


@pytest.mark.parallel
@pytest.mark.parametrize("name", ["greedy", "greedy_lazy"])
@pytest.mark.parametrize("case", ["uniform", "heterogeneous", "packed", "natural_planes"])
def test_pooled_selections_equal_serial_over_merged_rounds(case, name, monkeypatch):
    distribution, channel, _interest = case_spec(case, monkeypatch)
    serial = selection_rounds(RefinementSession(distribution, channel), get_selector(name))
    policy = ParallelPolicy(workers=2, parallel_threshold=0)
    with RefinementSession(distribution, channel, parallel=policy) as session:
        pooled = selection_rounds(session, get_selector(name))
        assert session.shared_evaluator().parallel_evaluations > 0
    assert pooled == serial
