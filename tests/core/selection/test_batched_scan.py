"""Differential suite: the batched candidate scan vs. two per-candidate oracles.

:meth:`EntropyEngine.scan` scores a whole block of candidates with a fixed
number of NumPy calls.  Two oracles score one candidate at a time:

* ``oracle_extension`` is the per-candidate NumPy pipeline the scan replaced
  — one grouped ``bincount``, one row-wise channel transform and one
  ``entropy_bits`` per answer table;
* ``scalar_extension`` shares no NumPy primitive with the engine: the masked
  grouping, the per-bit channel butterflies, the candidate's own channel and
  the entropy sums are plain Python loops, summed sequentially.

The contract pinned here:

* the answer tables are bit-identical to the oracle's (every step that
  builds them is elementwise);
* the entropies are bit-identical wherever no answer table holds an exact
  zero.  ``entropy_bits`` sums only the positive entries, while the scan
  reduces whole rows with zeros contributing nothing, so a zero moves the
  pairwise-summation boundaries and the last bits may differ — that happens
  for identity channels (accuracy 1.0) and is held to 1e-12;
* a candidate's floats never depend on which other candidates share its
  block: a block of N equals N blocks of one, bit for bit, however the block
  cap cuts the candidate list.  This is what makes pooled scans (each worker
  scoring a slice of the candidates) bit-identical to in-process ones;
* the scalar loops build the same answer tables bit for bit (every butterfly
  and channel step is the same two-term expression per element) and agree on
  the entropies within 1e-12 (sequential against pairwise summation);
* that agreement is tight enough to drive selection: every greedy selector
  picks the same tasks, round after round, when the scalar loops score its
  candidates instead of the scan;
* :meth:`EntropyEngine.extend` refines the cached partition exactly as a
  per-row loop over the selected facts' bits would.
"""

import math

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import bsc_transform_rows, channel_transform_rows, entropy_bits
from repro.core.selection import RefinementSession, get_selector
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import CandidateScan, EntropyEngine, _row_entropies
from repro.exceptions import SelectionError

NUM_FACTS = 9
SUPPORT = 150
MAX_WIDTH = 6
INTEREST = ("f0", "f3", "f5")

#: Identity channels are where answer tables hold exact zeros.
ZERO_TABLE_TOLERANCE = 1e-12

#: Sequential (scalar oracle) against pairwise (NumPy) entropy summation.
SCALAR_TOLERANCE = 1e-12


def oracle_extension(engine, state, fact_id):
    """``(A_false, A_true, H(T ∪ {f}), H(I, T ∪ {f}))`` one candidate at a time."""
    width = state.width
    cells = state.table.shape[0]
    grouped_true = np.bincount(
        state.combined,
        weights=engine.weighted_bits(fact_id),
        minlength=cells << width,
    ).reshape(cells, 1 << width)
    if engine.uniform_accuracy is not None:
        channeled_true = bsc_transform_rows(grouped_true, width, engine.uniform_accuracy)
        accuracy = engine.uniform_accuracy
    else:
        channeled_true = channel_transform_rows(grouped_true, state.bit_accuracies)
        accuracy = engine.accuracy_for(fact_id)
    channeled_false = state.table - channeled_true
    np.maximum(channeled_false, 0.0, out=channeled_false)
    error = 1.0 - accuracy
    answer_true = accuracy * channeled_true + error * channeled_false
    answer_false = error * channeled_true + accuracy * channeled_false
    joint_entropy = entropy_bits(answer_false) + entropy_bits(answer_true)
    if cells == 1:
        return answer_false, answer_true, joint_entropy, joint_entropy
    task_entropy = entropy_bits(answer_false.sum(axis=0)) + entropy_bits(
        answer_true.sum(axis=0)
    )
    return answer_false, answer_true, task_entropy, joint_entropy


def scalar_extension(engine, state, fact_id):
    """``(A_false, A_true, H(T ∪ {f}), H(I, T ∪ {f}))`` by scalar loops.

    1. masked grouping — the candidate's true mass summed by the cached
       ``(cell << width) | projection`` key, in support order;
    2. channel butterflies over the selected bits (per-bit accuracies, least
       significant bit first);
    3. the candidate's own 2×2 channel, with the false-branch mass recovered
       by linearity from the state's cached ``table`` and clamped at zero;
    4. entropy accumulation, summing cell-marginalised columns only when the
       engine partitions by facts of interest.
    """
    combined = state.combined
    bits = engine.bits(fact_id)
    probabilities = engine.probabilities
    num_cells = state.table.shape[0]
    width = state.width
    table = state.table.reshape(-1)
    if engine.uniform_accuracy is not None:
        bit_accuracies = [engine.uniform_accuracy] * width
        candidate_accuracy = engine.uniform_accuracy
    else:
        bit_accuracies = [float(accuracy) for accuracy in state.bit_accuracies]
        candidate_accuracy = engine.accuracy_for(fact_id)
    stride = 1 << width
    grouped = np.zeros(num_cells * stride, dtype=np.float64)
    for row in range(combined.shape[0]):
        if bits[row] != 0:
            grouped[combined[row]] += probabilities[row]
    for axis in range(1, width + 1):
        accuracy = bit_accuracies[width - axis]
        if accuracy == 1.0:
            continue
        error = 1.0 - accuracy
        bit = 1 << (width - axis)
        for cell in range(num_cells):
            base = cell * stride
            for column in range(stride):
                if column & bit == 0:
                    low = base + column
                    high = low + bit
                    x = grouped[low]
                    y = grouped[high]
                    grouped[low] = accuracy * x + error * y
                    grouped[high] = accuracy * y + error * x
    error = 1.0 - candidate_accuracy
    answer_false = np.zeros((num_cells, stride), dtype=np.float64)
    answer_true = np.zeros((num_cells, stride), dtype=np.float64)
    joint_entropy = 0.0
    column_false = np.zeros(stride, dtype=np.float64)
    column_true = np.zeros(stride, dtype=np.float64)
    for cell in range(num_cells):
        base = cell * stride
        for column in range(stride):
            mass_true = grouped[base + column]
            mass_false = table[base + column] - mass_true
            if mass_false < 0.0:
                mass_false = 0.0
            false_answer = error * mass_true + candidate_accuracy * mass_false
            true_answer = candidate_accuracy * mass_true + error * mass_false
            answer_false[cell, column] = false_answer
            answer_true[cell, column] = true_answer
            if false_answer > 0.0:
                joint_entropy -= false_answer * math.log2(false_answer)
            if true_answer > 0.0:
                joint_entropy -= true_answer * math.log2(true_answer)
            column_false[column] += false_answer
            column_true[column] += true_answer
    if num_cells == 1:
        return answer_false, answer_true, joint_entropy, joint_entropy
    task_entropy = 0.0
    for column in range(stride):
        for value in (column_false[column], column_true[column]):
            if value > 0.0:
                task_entropy -= value * math.log2(value)
    return answer_false, answer_true, task_entropy, joint_entropy


def scalar_scan(engine, state, fact_ids):
    """A :class:`CandidateScan` whose entropies all come from :func:`scalar_extension`.

    It keeps no answer tables, so :meth:`EntropyEngine.extend` scores the
    winner itself, and it counts evaluations as :meth:`EntropyEngine.scan`
    does.  Patched in for ``EntropyEngine.scan``, it runs every selector on
    the scalar oracle's scores.
    """
    fact_ids = tuple(fact_ids)
    engine.evaluations += len(fact_ids)
    scored = [scalar_extension(engine, state, fact_id)[2:] for fact_id in fact_ids]
    return CandidateScan(
        state,
        fact_ids,
        [task for task, _joint in scored],
        [joint for _task, joint in scored],
        [],
    )


def sparse_distribution(num_facts=NUM_FACTS, support=SUPPORT, seed=0):
    rng = np.random.default_rng(seed)
    if num_facts <= 62:
        masks = rng.choice(1 << num_facts, size=support, replace=False)
        masks = [int(mask) for mask in masks]
    else:
        masks = set()
        while len(masks) < support:
            masks.add(int.from_bytes(rng.bytes((num_facts + 7) // 8), "little")
                      & ((1 << num_facts) - 1))
        masks = sorted(masks)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    return JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)), dict(zip(masks, probabilities))
    )


def per_fact_channel(fact_ids, seed, identity_every=None):
    rng = np.random.default_rng(seed)
    accuracies = {
        fact_id: float(accuracy)
        for fact_id, accuracy in zip(fact_ids, rng.uniform(0.6, 0.95, len(fact_ids)).round(3))
    }
    if identity_every:
        for fact_id in fact_ids[::identity_every]:
            accuracies[fact_id] = 1.0
    return PerFactChannelModel(0.8, accuracies)


def engine_for(case):
    """The engine of one named scenario."""
    if case == "packed":
        distribution = sparse_distribution(num_facts=70, support=120, seed=4)
        engine = EntropyEngine(distribution, CrowdModel(0.75))
        assert engine.support_masks.ndim == 2  # uint64 bit planes
        return engine
    distribution = sparse_distribution(seed=len(case))
    fact_ids = distribution.fact_ids
    channels = {
        "uniform": CrowdModel(0.8),
        "heterogeneous": per_fact_channel(fact_ids, seed=1),
        "identity": CrowdModel(1.0),
        "heterogeneous_identity": per_fact_channel(fact_ids, seed=2, identity_every=3),
    }
    if case.startswith("interest_"):
        channel = channels[case[len("interest_"):]]
        return EntropyEngine(distribution, channel, interest_ids=INTEREST)
    return EntropyEngine(distribution, channels[case])


CASES = (
    "uniform",
    "heterogeneous",
    "identity",
    "heterogeneous_identity",
    "interest_uniform",
    "interest_heterogeneous",
    "interest_identity",
    "packed",
)


def grown_states(engine, max_width=MAX_WIDTH):
    """The states of widths 0..max_width along the fact order."""
    state = engine.initial_state()
    states = [state]
    for fact_id in engine.distribution.fact_ids[:max_width]:
        state = engine.extend(state, fact_id)
        states.append(state)
    return states


def remaining(engine, state):
    return [
        fact_id for fact_id in engine.distribution.fact_ids
        if fact_id not in state.task_ids
    ]


def hexes(values):
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("case", CASES)
class TestScanMatchesOracle:
    def test_entropies_and_tables(self, case):
        engine = engine_for(case)
        exact = 0
        for state in grown_states(engine):
            candidates = remaining(engine, state)
            scan = engine.scan(state, candidates)
            for index, fact_id in enumerate(candidates):
                answer_false, answer_true, task, joint = oracle_extension(
                    engine, state, fact_id
                )
                kept = scan.extension(fact_id)
                assert kept is not None
                assert np.array_equal(kept[0], answer_false)
                assert np.array_equal(kept[1], answer_true)
                assert kept[2] == scan.entropies[index]
                assert kept[3] == scan.joint_entropies[index]
                if (answer_false > 0.0).all() and (answer_true > 0.0).all():
                    exact += 1
                    assert scan.entropies[index].hex() == task.hex()
                    assert scan.joint_entropies[index].hex() == joint.hex()
                else:
                    assert scan.entropies[index] == pytest.approx(
                        task, abs=ZERO_TABLE_TOLERANCE
                    )
                    assert scan.joint_entropies[index] == pytest.approx(
                        joint, abs=ZERO_TABLE_TOLERANCE
                    )
        if "identity" not in case:
            assert exact > 0

    def test_scalar_oracle_agrees(self, case):
        engine = engine_for(case)
        for state in grown_states(engine):
            candidates = remaining(engine, state)
            scan = engine.scan(state, candidates)
            for index, fact_id in enumerate(candidates):
                answer_false, answer_true, task, joint = scalar_extension(
                    engine, state, fact_id
                )
                kept = scan.extension(fact_id)
                assert np.array_equal(kept[0], answer_false)
                assert np.array_equal(kept[1], answer_true)
                assert scan.entropies[index] == pytest.approx(
                    task, abs=SCALAR_TOLERANCE
                )
                assert scan.joint_entropies[index] == pytest.approx(
                    joint, abs=SCALAR_TOLERANCE
                )

    def test_extend_commits_the_oracle_tables(self, case):
        engine = engine_for(case)
        for state in grown_states(engine, max_width=MAX_WIDTH - 1):
            fact_id = remaining(engine, state)[-1]
            answer_false, answer_true, _task, _joint = oracle_extension(
                engine, state, fact_id
            )
            scanned = engine.scan(state, remaining(engine, state))
            from_scan = engine.extend(state, fact_id, scanned)
            rescored = engine.extend(state, fact_id)
            assert np.array_equal(from_scan.table[:, 0::2], answer_false)
            assert np.array_equal(from_scan.table[:, 1::2], answer_true)
            assert np.array_equal(from_scan.table, rescored.table)
            assert from_scan.entropy.hex() == rescored.entropy.hex()
            assert from_scan.joint_entropy.hex() == rescored.joint_entropy.hex()
            assert np.array_equal(from_scan.combined, rescored.combined)

    def test_extend_refines_the_partition(self, case):
        engine = engine_for(case)
        cells = engine.initial_state().combined.tolist()
        for state in grown_states(engine):
            # Selection order, most recent task in the least significant bit.
            projection = [0] * len(cells)
            for fact_id in state.task_ids:
                bits = engine.bits(fact_id)
                for row in range(len(cells)):
                    projection[row] = (projection[row] << 1) | int(bits[row])
            assert state.projection.tolist() == projection
            assert state.combined.tolist() == [
                (cell << state.width) | key for cell, key in zip(cells, projection)
            ]


@pytest.mark.parametrize("case", CASES)
class TestBlockIndependence:
    def test_block_of_n_equals_n_blocks_of_one(self, case):
        engine = engine_for(case)
        for state in grown_states(engine):
            candidates = remaining(engine, state)
            block = engine.scan(state, candidates)
            singles = [engine.scan(state, [fact_id]) for fact_id in candidates]
            assert hexes(block.entropies) == hexes(s.entropies[0] for s in singles)
            assert hexes(block.joint_entropies) == hexes(
                s.joint_entropies[0] for s in singles
            )

    @pytest.mark.parametrize("blocks_of", [1, 2, 3])
    def test_block_boundaries_do_not_move_any_bit(self, case, blocks_of, monkeypatch):
        engine = engine_for(case)
        states = grown_states(engine)
        unbounded = [engine.scan(state, remaining(engine, state)) for state in states]
        for state, expected in zip(states, unbounded):
            footprint = max(
                engine.support_masks.shape[0], state.table.shape[0] << state.width
            )
            # blocks_of=1 pins the cap to a single entry: every candidate is
            # its own block and the scan keeps no answer tables at all.
            cap = 1 if blocks_of == 1 else blocks_of * footprint
            monkeypatch.setattr(engine_module, "_SCAN_BLOCK_MAX_ENTRIES", cap)
            candidates = remaining(engine, state)
            chunked = engine.scan(state, candidates)
            monkeypatch.undo()
            assert hexes(chunked.entropies) == hexes(expected.entropies)
            assert hexes(chunked.joint_entropies) == hexes(expected.joint_entropies)
            if blocks_of == 1:
                assert all(chunked.extension(f) is None for f in candidates)
            committed = engine.extend(state, candidates[0], chunked)
            reference = engine.extend(state, candidates[0], expected)
            assert np.array_equal(committed.table, reference.table)
            assert committed.entropy.hex() == reference.entropy.hex()


SELECTORS = ("greedy", "greedy_lazy", "greedy_prune_pre")
SELECTION_ACCURACY = 0.82


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def on_scalar_oracle(monkeypatch, run):
    """``run()`` with every engine's candidates scored by :func:`scalar_scan`."""
    scans = []

    def patched(engine, state, fact_ids):
        scans.append(len(fact_ids))
        return scalar_scan(engine, state, fact_ids)

    with monkeypatch.context() as patch:
        patch.setattr(EntropyEngine, "scan", patched)
        outcome = run()
    assert scans, "the selection never scanned a candidate"
    return outcome


class TestScalarOracleSelection:
    """The scan's scores drive the same selections as the scalar loops'."""

    @staticmethod
    def assert_same_selection(monkeypatch, distribution, crowd, selector_name):
        def run():
            session = RefinementSession(distribution, crowd)
            return get_selector(selector_name).select_with_session(session, 4)

        scanned = run()
        oracle = on_scalar_oracle(monkeypatch, run)
        assert oracle.task_ids == scanned.task_ids
        assert abs(oracle.objective - scanned.objective) <= 1e-9

    @pytest.mark.parametrize("selector_name", SELECTORS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_uniform_channel(self, monkeypatch, selector_name, seed):
        self.assert_same_selection(
            monkeypatch,
            sparse_distribution(num_facts=14, support=384, seed=seed),
            CrowdModel(SELECTION_ACCURACY),
            selector_name,
        )

    @pytest.mark.parametrize("selector_name", SELECTORS)
    def test_heterogeneous_channel(self, monkeypatch, selector_name):
        distribution = sparse_distribution(num_facts=12, support=256, seed=5)
        self.assert_same_selection(
            monkeypatch,
            distribution,
            per_fact_channel(distribution.fact_ids, seed=6),
            selector_name,
        )

    def test_multi_round_trajectories(self, monkeypatch):
        distribution = sparse_distribution(num_facts=16, support=512, seed=9)
        crowd = CrowdModel(SELECTION_ACCURACY)

        def run():
            session = RefinementSession(distribution, crowd)
            selector = get_selector("greedy")
            task_sets = []
            for round_index in range(4):
                result = selector.select_with_session(session, 2)
                task_sets.append(result.task_ids)
                session.merge(scripted_answers(result.task_ids, round_index))
            return task_sets, dict(session.distribution.items())

        scanned_sets, scanned_posterior = run()
        oracle_sets, oracle_posterior = on_scalar_oracle(monkeypatch, run)
        assert oracle_sets == scanned_sets
        assert oracle_posterior.keys() == scanned_posterior.keys()
        for mask, probability in oracle_posterior.items():
            assert probability == pytest.approx(scanned_posterior[mask], abs=1e-12)


class TestRowEntropies:
    @pytest.mark.parametrize(
        "length",
        list(range(1, 130)) + [255, 256, 257, 1023, 1024, 1025, 4095, 4096, 16383, 16384],
    )
    def test_each_row_reduces_like_entropy_bits(self, length):
        rng = np.random.default_rng(length)
        rows = rng.uniform(1e-6, 1.0, size=(3, length))
        rows /= rows.sum()
        together = _row_entropies(rows)
        for row, value in zip(rows, together):
            assert value.hex() == entropy_bits(row).hex()
            assert value.hex() == _row_entropies(row[np.newaxis])[0].hex()

    def test_zero_mass_contributes_nothing(self):
        masses = np.array([[0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert _row_entropies(masses).tolist() == pytest.approx([1.0, 0.0])


class TestScanContract:
    def test_empty_candidate_list(self):
        engine = engine_for("uniform")
        state = grown_states(engine, max_width=2)[-1]
        before = engine.evaluations
        scan = engine.scan(state, [])
        assert scan.entropies == [] and scan.joint_entropies == []
        assert engine.evaluations == before

    @pytest.mark.parametrize("case", ["uniform", "interest_heterogeneous"])
    def test_counter_semantics(self, case):
        engine = engine_for(case)
        state = engine.initial_state()
        candidates = remaining(engine, state)
        scan = engine.scan(state, candidates)
        assert engine.evaluations == len(candidates)
        state = engine.extend(state, candidates[0], scan)
        state = engine.extend(state, candidates[1])
        assert engine.evaluations == len(candidates)
        engine.scan(state, candidates[2:5])
        assert engine.evaluations == len(candidates) + 3

    def test_extend_refuses_a_scan_of_another_state(self):
        engine = engine_for("uniform")
        state = engine.initial_state()
        scan = engine.scan(state, ["f0", "f1"])
        grown = engine.extend(state, "f0", scan)
        with pytest.raises(SelectionError, match="different selection state"):
            engine.extend(grown, "f1", scan)
