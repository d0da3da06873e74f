"""Differential suite: the batched candidate scan vs. the per-candidate pipeline.

:meth:`EntropyEngine.scan` scores a whole block of candidates with a fixed
number of NumPy calls.  The oracle below is the per-candidate pipeline it
replaced — one grouped ``bincount``, one row-wise channel transform and one
``entropy_bits`` per answer table, for one candidate at a time.

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
  scoring a slice of the candidates) bit-identical to in-process ones.
"""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import bsc_transform_rows, channel_transform_rows, entropy_bits
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import EntropyEngine, _row_entropies
from repro.exceptions import SelectionError

NUM_FACTS = 9
SUPPORT = 150
MAX_WIDTH = 6
INTEREST = ("f0", "f3", "f5")

#: Identity channels are where answer tables hold exact zeros.
ZERO_TABLE_TOLERANCE = 1e-12


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


def engine_for(case, kernel="numpy"):
    """The engine of one named scenario, pinned to one kernel tier."""
    if case == "packed":
        distribution = sparse_distribution(num_facts=70, support=120, seed=4)
        engine = EntropyEngine(distribution, CrowdModel(0.75), kernel=kernel)
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
        return EntropyEngine(
            distribution, channel, interest_ids=INTEREST, kernel=kernel
        )
    return EntropyEngine(distribution, channels[case], kernel=kernel)


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

    @pytest.mark.parametrize("case", ["uniform", "heterogeneous", "interest_uniform"])
    def test_fused_reference_tier_agrees(self, case):
        numpy_engine = engine_for(case)
        reference_engine = engine_for(case, kernel="reference")
        for numpy_state, reference_state in zip(
            grown_states(numpy_engine, 3), grown_states(reference_engine, 3)
        ):
            candidates = remaining(numpy_engine, numpy_state)
            expected = numpy_engine.scan(numpy_state, candidates)
            fused = reference_engine.scan(reference_state, candidates)
            assert fused.entropies == pytest.approx(expected.entropies, abs=1e-9)
            assert fused.joint_entropies == pytest.approx(
                expected.joint_entropies, abs=1e-9
            )
            # The fused kernel keeps no tables; extend re-scores the winner.
            assert fused.extension(candidates[0]) is None
            committed = reference_engine.extend(reference_state, candidates[0], fused)
            assert committed.entropy == pytest.approx(expected.entropies[0], abs=1e-9)
