"""The packed wide-fact representation, end to end.

A 128-fact corpus must run a full select/merge refinement loop with packed
uint64 bit planes in every hot-path array — no object dtype anywhere — and
agree with two oracles: the object-dtype mask engine of the test tree
(``object_mask_engine.py``) and the seed selector ``greedy_reference``,
which works on Python ints at any width.
"""

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.bitplanes import unpack_planes
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.merging import answer_likelihood_array, merge_answers
from repro.core.selection import RefinementSession, get_selector
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.greedy import run_greedy_on_engine
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from tests.core.selection.object_mask_engine import ObjectMaskEngine

ACCURACY = 0.82
WIDE_FACTS = 128
WIDE_SUPPORT = 1 << 12


def heterogeneous_channel(num_facts, seed):
    rng = np.random.default_rng(seed)
    return PerFactChannelModel(
        ACCURACY,
        {
            f"f{i}": float(accuracy)
            for i, accuracy in enumerate(
                rng.uniform(0.6, 0.95, size=num_facts).round(3)
            )
        },
    )


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def wide_distribution(seed=21, support_size=WIDE_SUPPORT):
    return generate_scale_distribution(
        ScaleCorpusConfig(num_facts=WIDE_FACTS, support_size=support_size, seed=seed)
    )


def assert_no_object_arrays(engine):
    """Every hot-path array of a packed engine must be numeric, never object."""
    assert engine.support_masks.ndim == 2
    assert engine.support_masks.dtype == np.uint64
    assert engine.probabilities.dtype == np.float64
    for fact_id in ("f0", "f63", "f64", f"f{WIDE_FACTS - 1}"):
        column = engine.bits(fact_id)
        assert column.dtype == np.int8


class TestWideFactPackedPath:
    def test_engine_holds_planes_past_63_facts(self):
        distribution = wide_distribution()
        engine = EntropyEngine(distribution, CrowdModel(ACCURACY))
        assert_no_object_arrays(engine)
        assert engine.support_masks is distribution.support_arrays()[0]
        oracle = ObjectMaskEngine(distribution, CrowdModel(ACCURACY))
        assert oracle.support_masks.dtype == object
        assert oracle.support_masks.tolist() == list(distribution.support())

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_packed_selection_matches_object_mask_oracle(self, heterogeneous):
        distribution = wide_distribution()
        crowd = (
            heterogeneous_channel(WIDE_FACTS, 25)
            if heterogeneous
            else CrowdModel(ACCURACY)
        )
        packed = EntropyEngine(distribution, crowd)
        oracle = ObjectMaskEngine(distribution, crowd)
        candidates = distribution.fact_ids
        packed_result = run_greedy_on_engine(packed, 4, candidates)
        oracle_result = run_greedy_on_engine(oracle, 4, candidates)
        assert packed_result.task_ids == oracle_result.task_ids
        assert abs(packed_result.objective - oracle_result.objective) <= 1e-9

    def test_packed_selection_matches_greedy_reference(self):
        # The seed selector scores every candidate task set from the
        # distribution's Python-int masks, whatever their width.
        distribution = wide_distribution(seed=24, support_size=512)
        crowd = CrowdModel(ACCURACY)
        packed = get_selector("greedy").select(distribution, crowd, 3)
        reference = get_selector("greedy_reference").select(distribution, crowd, 3)
        assert len(packed.task_ids) == 3
        assert packed.task_ids == reference.task_ids
        assert abs(packed.objective - reference.objective) <= 1e-9

    def test_full_refinement_loop_stays_packed(self):
        distribution = wide_distribution()
        crowd = CrowdModel(ACCURACY)
        session = RefinementSession(distribution, crowd)
        selector = get_selector("greedy")
        for round_index in range(3):
            result = selector.select_with_session(session, 2)
            assert result.task_ids
            assert_no_object_arrays(session.engine)
            session.merge(scripted_answers(result.task_ids, round_index))
        posterior = session.distribution
        # The posterior adopts the engine's planes as its support arrays, so
        # no Python-int mask column is built on this path.
        masks, probabilities = posterior._arrays
        assert masks.dtype == np.uint64 and masks.shape == (WIDE_SUPPORT, 2)
        assert probabilities.dtype == np.float64
        assert posterior.num_facts == WIDE_FACTS
        assert sum(probability for _, probability in posterior.items()) == (
            pytest.approx(1.0)
        )

    def test_wide_merge_matches_python_reference(self):
        distribution = wide_distribution(seed=22)
        crowd = heterogeneous_channel(WIDE_FACTS, 23)
        task_ids = ("f1", "f64", "f100")
        answers = scripted_answers(task_ids, 0)
        likelihoods = answer_likelihood_array(distribution, answers, crowd)

        planes, probabilities = distribution.support_arrays()
        masks = unpack_planes(planes)
        assert masks == list(distribution.support())
        judgments = answers.judgments()
        expected = np.ones(len(masks), dtype=np.float64)
        for fact_id, judgment in judgments.items():
            position = distribution.position(fact_id)
            accuracy = crowd.accuracy_for(fact_id)
            for row, mask in enumerate(masks):
                agrees = bool((mask >> position) & 1) == judgment
                expected[row] *= accuracy if agrees else 1.0 - accuracy
        np.testing.assert_allclose(likelihoods, expected, atol=1e-12)

        posterior = merge_answers(distribution, answers, crowd)
        manual = probabilities * likelihoods
        np.testing.assert_allclose(
            np.fromiter(
                (probability for _, probability in posterior.items()),
                dtype=np.float64,
            ),
            manual / manual.sum(),
            atol=1e-12,
        )

    def test_wide_selection_sub_second_sanity(self):
        # The packed path exists so wide corpora stop paying per-row Python
        # cost; a quick absolute sanity bound (generous for CI) catches an
        # accidental re-route through the object path.
        import time

        distribution = wide_distribution()
        engine = EntropyEngine(distribution, CrowdModel(ACCURACY))
        started = time.perf_counter()
        run_greedy_on_engine(engine, 2, distribution.fact_ids[:64])
        assert time.perf_counter() - started < 5.0
