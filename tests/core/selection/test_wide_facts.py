"""The packed wide-fact representation, end to end.

A 128-fact corpus must run a full select/merge refinement loop with packed
uint64 bit planes in every hot-path array — no object dtype anywhere — and
agree with the legacy object-dtype engine path (``packed=False``).
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


def wide_distribution(seed=21):
    return generate_scale_distribution(
        ScaleCorpusConfig(num_facts=WIDE_FACTS, support_size=WIDE_SUPPORT, seed=seed)
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
    def test_engine_defaults_to_packed_past_63_facts(self):
        distribution = wide_distribution()
        engine = EntropyEngine(distribution, CrowdModel(ACCURACY))
        assert_no_object_arrays(engine)
        legacy = EntropyEngine(distribution, CrowdModel(ACCURACY), packed=False)
        assert legacy.support_masks.dtype == object

    def test_packed_selection_matches_object_path(self):
        distribution = wide_distribution()
        crowd = CrowdModel(ACCURACY)
        packed = EntropyEngine(distribution, crowd)
        legacy = EntropyEngine(distribution, crowd, packed=False)
        candidates = distribution.fact_ids
        packed_result = run_greedy_on_engine(packed, 4, candidates)
        legacy_result = run_greedy_on_engine(legacy, 4, candidates)
        assert packed_result.task_ids == legacy_result.task_ids
        assert abs(packed_result.objective - legacy_result.objective) <= 1e-9

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
        # The posterior is rebuilt through the packed trusted constructor —
        # the object-dtype mask column is never materialised on this path.
        assert posterior._planes is not None
        assert posterior._arrays is None
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

        masks = unpack_planes(distribution.support_planes())
        probabilities = distribution.support_probabilities()
        judgments = answers.judgments()
        expected = np.ones(masks.shape[0], dtype=np.float64)
        for fact_id, judgment in judgments.items():
            position = distribution.position(fact_id)
            accuracy = crowd.accuracy_for(fact_id)
            for row, mask in enumerate(masks):
                agrees = bool((int(mask) >> position) & 1) == judgment
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
