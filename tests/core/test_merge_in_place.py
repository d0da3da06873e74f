"""The in-place session merge against the 5.0 per-row merge.

``RefinementSession.merge`` multiplies a round's likelihoods into the
engine's own probability vector, block by block with buffers the engine
keeps (``EntropyEngine._reweight_blocks``).  The contract pinned here:

* the posteriors are bit-identical to ``tests/core/merge_oracle.py`` round
  after round, on supports of one row, one block ±1 row and several blocks,
  under uniform, per-fact and re-calibrated channels and on 70-fact bit
  planes: per row ``p·w``, one pairwise sum over the whole column, one
  division, with the likelihoods of the one ``_ColumnLikelihoods``
  primitive;
* the prior's read-only arrays are copied once, by the first merge, and
  stay byte-equal whatever follows;
* every answered column is fetched before anything is written;
* an interest view, which shares the vector, refuses use once its engine
  has merged;
* only when the smallest likelihood × 0.5/rows is zero can a merge remove
  all mass, and only then does it read the likelihoods before writing: a
  merge that removes all mass raises and changes nothing;
* from the third merge of a 2^16-row session on, a uniform merge
  allocates less than an eighth of one float64 column.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.bitplanes import pack_masks
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import bit_column
from repro.core.merging import _ColumnLikelihoods, answer_likelihood_array
from repro.core.runtime import RuntimeOptions
from repro.core.selection import RefinementSession
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import EntropyEngine
from repro.exceptions import InvalidFactError, SelectionError

from tests.core.merge_oracle import oracle_merge

BLOCK = engine_module._REWEIGHT_BLOCK_ROWS
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def support(rows, num_facts=20, seed=0):
    """A ``rows``-row distribution over ``num_facts`` facts (bit planes past 63)."""
    rng = np.random.default_rng(seed)
    fact_ids = tuple(f"f{index}" for index in range(num_facts))
    if num_facts <= 63:
        masks = rng.choice(1 << num_facts, size=rows, replace=False).astype(np.int64)
    else:
        keys = set()
        while len(keys) < rows:
            keys.add(int.from_bytes(rng.bytes((num_facts + 7) // 8), "little") >> 2)
        masks = pack_masks(sorted(keys), num_facts)
    masses = rng.uniform(0.05, 1.0, size=rows)
    return JointDistribution.from_support_arrays(fact_ids, masks, masses)


def rounds(distribution, count=4, k=3, seed=1):
    rng = np.random.default_rng(seed)
    fact_ids = distribution.fact_ids
    answer_sets = []
    for _ in range(count):
        answered = rng.choice(len(fact_ids), size=min(k, len(fact_ids)), replace=False)
        answer_sets.append(
            AnswerSet.from_mapping(
                {fact_ids[index]: bool(rng.integers(0, 2)) for index in answered}
            )
        )
    return answer_sets


def channel(kind, distribution):
    if kind == "per_fact":
        return PerFactChannelModel(
            0.75, {fact_id: 0.6 + 0.03 * (index % 10) for index, fact_id in enumerate(distribution.fact_ids)}
        )
    return CrowdModel(0.8)


@pytest.mark.parametrize("kind", ["uniform", "per_fact", "recalibrated"])
@pytest.mark.parametrize("rows", SIZES)
def test_session_merges_equal_the_oracle(rows, kind):
    distribution = support(rows)
    runtime = RuntimeOptions(recalibrate=kind == "recalibrated")
    session = RefinementSession(distribution, channel(kind, distribution), runtime=runtime)
    expected = distribution.support_arrays()[1]
    for answers in rounds(distribution):
        # A re-calibrating session merges with the channel it holds now.
        expected = oracle_merge(expected, distribution, answers, session.channel)
        session.merge(answers)
        assert np.array_equal(session.engine.probabilities, expected)
    assert session.recalibrates == (kind == "recalibrated")


@pytest.mark.parametrize("kind", ["uniform", "per_fact"])
@pytest.mark.parametrize("rows", (1, BLOCK + 1, 3 * BLOCK + 5))
def test_bit_planes_equal_the_oracle(rows, kind):
    distribution = support(rows, num_facts=70, seed=2)
    crowd = channel(kind, distribution)
    session = RefinementSession(distribution, crowd)
    assert session.engine.support_masks.ndim == 2
    expected = distribution.support_arrays()[1]
    for answers in rounds(distribution, k=5, seed=3):
        expected = oracle_merge(expected, distribution, answers, crowd)
        session.merge(answers)
        assert np.array_equal(session.engine.probabilities, expected)


@pytest.mark.parametrize("kind", ["uniform", "per_fact"])
@pytest.mark.parametrize("k", [4, 5, 127, 128, 255, 256])
def test_many_answers_equal_the_per_row_products(k, kind):
    """Around the count types' limits (int8 holds 127 disagreements) and the
    heterogeneous pattern table's four answers."""
    distribution = support(BLOCK + 1, num_facts=300, seed=k)
    crowd = channel(kind, distribution)
    rng = np.random.default_rng(k)
    answered = rng.choice(distribution.num_facts, size=k, replace=False)
    masks = distribution.support_arrays()[0]
    # Row 0 disagrees with every answer: its count is k itself.
    answers = AnswerSet.from_mapping(
        {
            distribution.fact_ids[index]: not bit_column(masks[:1], int(index))[0]
            for index in answered
        }
    )
    expected = np.ones(masks.shape[0])
    disagreements = np.zeros(masks.shape[0], dtype=np.int64)
    for fact_id, judgment in answers.judgments().items():
        agrees = bit_column(masks, distribution.position(fact_id)) == judgment
        disagreements += ~agrees
        accuracy = crowd.accuracy_for(fact_id)
        expected *= np.where(agrees, accuracy, 1.0 - accuracy)
    if kind == "uniform":
        accuracy = crowd.uniform_accuracy
        expected = (accuracy ** (k - disagreements)) * ((1.0 - accuracy) ** disagreements)
    assert np.array_equal(answer_likelihood_array(distribution, answers, crowd), expected)
    session = RefinementSession(distribution, crowd)
    session.merge(answers)
    prior = distribution.support_arrays()[1]
    masses = prior * expected
    assert np.array_equal(session.engine.probabilities, masses / masses.sum())


def test_the_prior_is_copied_once_and_never_written():
    distribution = support(2 * BLOCK + 3)
    prior = distribution.support_arrays()[1]
    kept = prior.tobytes()
    session = RefinementSession(distribution, CrowdModel(0.8))
    assert session.engine.probabilities is prior
    owned = None
    for answers in rounds(distribution, count=5):
        session.merge(answers)
        if owned is None:
            owned = session.engine.probabilities
            assert owned is not prior and not np.shares_memory(owned, prior)
        assert session.engine.probabilities is owned
    assert not prior.flags.writeable
    assert prior.tobytes() == kept
    assert np.array_equal(distribution.support_arrays()[1], prior)


def test_a_view_held_across_merges_refuses_use():
    """A view shares the vector a merge writes, so it is valid until one."""
    distribution = support(200, num_facts=8, seed=5)
    crowd = CrowdModel(0.8)
    session = RefinementSession(distribution, crowd)
    interest = ("f0", "f1")
    first, second = rounds(distribution, count=2, k=2, seed=6)
    held = [session.engine_for_interest(interest)]
    session.merge(first)
    # From here on the session owns its vector and writes it in place.
    held.append(session.engine_for_interest(interest))
    state = held[1].initial_state()
    scan = held[1].scan(state, ["f2", "f3"])
    session.merge(second)
    for view in held:
        assert view is not session.engine_for_interest(interest)
        with pytest.raises(SelectionError, match="stale"):
            view.initial_state()
        with pytest.raises(SelectionError, match="stale"):
            view.task_entropy(["f2"])
    with pytest.raises(SelectionError, match="stale"):
        held[1].scan(state, ["f2"])
    with pytest.raises(SelectionError, match="stale"):
        held[1].extend(state, "f2", scan)
    # A view made after the merge scans the posterior an engine of its own
    # would: the same floats.
    fresh = session.engine_for_interest(interest)
    own = EntropyEngine(session.distribution, crowd, interest)
    candidates = ["f2", "f3", "f5"]
    assert fresh.scan(fresh.initial_state(), candidates).entropies == (
        own.scan(own.initial_state(), candidates).entropies
    )


@pytest.mark.parametrize("crowd", [CrowdModel(0.8), PerFactChannelModel(0.8, {"f1": 0.7})])
def test_an_unknown_fact_changes_nothing(crowd):
    distribution = support(2 * BLOCK + 3)
    session = RefinementSession(distribution, crowd)
    session.merge(rounds(distribution, count=1)[0])
    engine = session.engine
    before, vector = engine.probabilities.tobytes(), engine.probabilities
    # The unknown fact comes last: the columns before it were fetched.
    answers = AnswerSet.from_mapping({"f1": True, "f2": False, "zzz": True})
    with pytest.raises(InvalidFactError):
        session.merge(answers)
    assert engine.probabilities is vector
    assert engine.probabilities.tobytes() == before
    assert engine.reweights == session.rounds_merged == 1


def weight_calls(monkeypatch):
    """Counts of ``_ColumnLikelihoods.fill`` calls, per merge."""
    calls = []
    fill = _ColumnLikelihoods.fill

    def counting(self, start, stop, out, scratch):
        calls.append((start, stop))
        return fill(self, start, stop, out, scratch)

    monkeypatch.setattr(_ColumnLikelihoods, "fill", counting)
    return calls


class TestMassLoss:
    @given(
        st.integers(1, 3 * BLOCK + 5),
        st.floats(0.0, 60.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_positive_bound_keeps_mass(self, rows, skew, seed):
        """Weights no smaller than ``smallest``, with ``smallest · 0.5/rows``
        just positive, keep a normalised posterior's mass however skewed
        it is (down to subnormal rows), so the update writes unchecked."""
        rng = np.random.default_rng(seed)
        masses = np.exp(-skew * rng.uniform(0.0, 20.0, size=rows))
        masses[rng.integers(0, rows)] = 1.0
        fact_ids = tuple(f"f{index}" for index in range(20))
        masks = rng.choice(1 << 20, size=rows, replace=False).astype(np.int64)
        engine = EntropyEngine(
            JointDistribution.from_support_arrays(fact_ids, masks, masses), CrowdModel(0.8)
        )
        rows = engine.probabilities.shape[0]
        smallest = 5e-324 / (0.5 / rows)
        while not smallest * (0.5 / rows) > 0.0:
            smallest = np.nextafter(smallest, np.inf)
        weights = np.full(rows, smallest)
        weights[rng.integers(0, rows, size=min(rows, 3))] = 1.0
        reads = []

        def block_weights(start, stop, _out, _scratch):
            reads.append(start)
            return weights[start:stop]

        engine._reweight_blocks(smallest, block_weights)
        assert reads == list(range(0, rows, BLOCK))
        assert np.isfinite(engine.probabilities).all()
        assert engine.probabilities.sum() == pytest.approx(1.0)

    def test_a_positive_bound_reads_the_likelihoods_once(self, monkeypatch):
        distribution = support(3 * BLOCK + 5)
        session = RefinementSession(distribution, CrowdModel(0.8))
        calls = weight_calls(monkeypatch)
        session.merge(rounds(distribution, count=1)[0])
        assert calls == [
            (start, min(start + BLOCK, 3 * BLOCK + 5)) for start in range(0, 3 * BLOCK + 5, BLOCK)
        ]

    def test_perfect_evidence_that_removes_all_mass(self, monkeypatch):
        # Every row holds f0 or f1 and none holds both: answers "both true"
        # from a perfect crowd rule out every row.
        rows = 2 * BLOCK + 3
        rng = np.random.default_rng(4)
        masks = np.arange(rows, dtype=np.int64) << 2
        masks |= np.where(rng.integers(0, 2, size=rows) == 1, 0b01, 0b10)
        fact_ids = tuple(f"f{index}" for index in range(20))
        distribution = JointDistribution.from_support_arrays(
            fact_ids, masks, rng.uniform(0.1, 1.0, size=rows)
        )
        session = RefinementSession(distribution, CrowdModel(1.0))
        session.merge(AnswerSet.from_mapping({"f5": True}))
        engine = session.engine
        before, vector = engine.probabilities.tobytes(), engine.probabilities
        calls = weight_calls(monkeypatch)
        with pytest.raises(SelectionError, match="all probability mass"):
            session.merge(AnswerSet.from_mapping({"f0": True, "f1": True}))
        # Every block was read, and none written.
        assert len(calls) == 3
        assert engine.probabilities is vector
        assert engine.probabilities.tobytes() == before
        assert engine.reweights == session.rounds_merged == 1

    def test_an_underflowing_table(self):
        # 400 answers at Pc 0.9: a row that disagrees with more than ~320 of
        # them has likelihood 0.0, and every row here disagrees with 340+.
        num_facts, rows = 400, 64
        rng = np.random.default_rng(5)
        keys = {
            sum(1 << int(bit) for bit in rng.choice(num_facts, size=50, replace=False))
            for _ in range(rows)
        }
        distribution = JointDistribution(
            tuple(f"f{index}" for index in range(num_facts)),
            {key: float(rng.uniform(0.1, 1.0)) for key in keys},
        )
        answers = AnswerSet.from_mapping({fact_id: True for fact_id in distribution.fact_ids})
        likelihoods = _ColumnLikelihoods(answers, CrowdModel(0.9), EntropyEngine(
            distribution, CrowdModel(0.9)
        ).bits)
        assert likelihoods.smallest == 0.0
        session = RefinementSession(distribution, CrowdModel(0.9))
        prior = session.engine.probabilities
        with pytest.raises(SelectionError, match="all probability mass"):
            session.merge(answers)
        assert session.engine.probabilities is prior
        assert session.engine.reweights == 0
        # A small answer set still merges.
        session.merge(AnswerSet.from_mapping({"f0": True}))


def test_merges_allocate_no_column():
    """A uniform round reuses the engine's block buffers from the first
    merge on (a heterogeneous one gathers into block-sized temporaries)."""
    rows = 1 << 16
    distribution = support(rows)
    session = RefinementSession(distribution, CrowdModel(0.8))
    # The same facts each round: their columns are cached by the first.
    answer_sets = [
        AnswerSet.from_mapping({"f1": bool(r % 2), "f4": True, "f9": not r % 3})
        for r in range(8)
    ]
    session.merge(answer_sets[0])
    session.merge(answer_sets[1])
    for answers in answer_sets[2:]:
        tracemalloc.start()
        try:
            session.merge(answers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * 8 // 8
