"""Unit tests for JointDistribution."""

import math

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution, entropy_of
from repro.core.selection import RefinementSession
from repro.exceptions import InvalidDistributionError, InvalidFactError


def two_fact_distribution():
    """P(f1,f2) with a known correlation structure."""
    return JointDistribution.from_assignments(
        ("f1", "f2"),
        {
            (False, False): 0.4,
            (False, True): 0.1,
            (True, False): 0.1,
            (True, True): 0.4,
        },
    )


class TestConstruction:
    def test_normalises_by_default(self):
        dist = JointDistribution(("a",), {0: 2.0, 1: 6.0})
        assert dist.probability(0) == pytest.approx(0.25)
        assert dist.probability(1) == pytest.approx(0.75)

    def test_unnormalised_rejected_when_normalise_false(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: 0.3, 1: 0.3}, normalise=False)

    def test_normalised_accepted_when_normalise_false(self):
        dist = JointDistribution(("a",), {0: 0.3, 1: 0.7}, normalise=False)
        assert dist.probability(1) == pytest.approx(0.7)

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: -0.1, 1: 1.1})

    def test_nan_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: float("nan"), 1: 1.0})

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {})

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {0: 0.0, 1: 0.0})

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a",), {2: 1.0})

    def test_duplicate_fact_ids_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution(("a", "a"), {0: 1.0})

    def test_no_facts_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution((), {0: 1.0})

    def test_from_assignments_tuple_keys(self):
        dist = two_fact_distribution()
        assert dist.probability((True, True)) == pytest.approx(0.4)

    def test_from_assignments_wrong_length_rejected(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.from_assignments(("a", "b"), {(True,): 1.0})

    def test_independent_product(self):
        dist = JointDistribution.independent({"a": 0.5, "b": 0.2})
        assert dist.probability((True, True)) == pytest.approx(0.1)
        assert dist.probability((False, False)) == pytest.approx(0.4)
        assert dist.support_size == 4

    def test_independent_degenerate_marginal(self):
        dist = JointDistribution.independent({"a": 1.0, "b": 0.5})
        assert dist.marginal("a") == pytest.approx(1.0)
        assert dist.support_size == 2

    def test_independent_invalid_marginal(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.independent({"a": 1.2})

    def test_independent_missing_marginal_for_fact_order(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.independent({"a": 0.2}, fact_ids=("a", "b"))

    def test_uniform(self):
        dist = JointDistribution.uniform(("a", "b", "c"))
        assert dist.support_size == 8
        assert dist.entropy() == pytest.approx(3.0)

    def test_uniform_refuses_huge_fact_sets(self):
        with pytest.raises(InvalidDistributionError):
            JointDistribution.uniform(tuple(f"f{i}" for i in range(25)))


class TestQuantities:
    def test_entropy_of_helper(self):
        assert entropy_of([0.5, 0.5]) == pytest.approx(1.0)
        assert entropy_of([1.0]) == pytest.approx(0.0)
        assert entropy_of([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_entropy_matches_manual_computation(self):
        dist = two_fact_distribution()
        expected = -(0.4 * math.log2(0.4) * 2 + 0.1 * math.log2(0.1) * 2)
        assert dist.entropy() == pytest.approx(expected)

    def test_marginals(self):
        dist = two_fact_distribution()
        assert dist.marginal("f1") == pytest.approx(0.5)
        assert dist.marginal("f2") == pytest.approx(0.5)
        assert dist.marginals() == pytest.approx({"f1": 0.5, "f2": 0.5})

    def test_marginal_unknown_fact(self):
        with pytest.raises(InvalidFactError):
            two_fact_distribution().marginal("zzz")

    def test_marginalize_reduces_facts(self):
        dist = two_fact_distribution()
        reduced = dist.marginalize(["f1"])
        assert reduced.fact_ids == ("f1",)
        assert reduced.probability((True,)) == pytest.approx(0.5)

    def test_marginalize_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            two_fact_distribution().marginalize([])

    def test_marginalize_entropy_never_increases(self):
        dist = two_fact_distribution()
        assert dist.marginalize(["f1"]).entropy() <= dist.entropy() + 1e-12

    def test_condition_on_evidence(self):
        dist = two_fact_distribution()
        conditioned = dist.condition({"f1": True})
        assert conditioned.marginal("f1") == pytest.approx(1.0)
        assert conditioned.marginal("f2") == pytest.approx(0.8)

    def test_condition_zero_probability_evidence(self):
        dist = JointDistribution.from_assignments(
            ("a", "b"), {(True, True): 0.5, (False, False): 0.5}
        )
        with pytest.raises(InvalidDistributionError):
            dist.condition({"a": True, "b": False})

    def test_condition_empty_evidence_is_copy(self):
        dist = two_fact_distribution()
        assert dist.condition({}).allclose(dist)

    def test_reweight(self):
        dist = JointDistribution(("a",), {0: 0.5, 1: 0.5})
        updated = dist.reweight({1: 3.0})
        assert updated.probability(1) == pytest.approx(0.75)

    def test_reweight_missing_masks_default_to_one(self):
        dist = JointDistribution(("a",), {0: 0.5, 1: 0.5})
        assert dist.reweight({}).allclose(dist)


class TestDecisions:
    def test_map_assignment(self):
        dist = two_fact_distribution()
        best = dist.map_assignment()
        assert best.to_bools() in [(False, False), (True, True)]

    def test_predicted_labels_threshold(self):
        dist = JointDistribution.independent({"a": 0.7, "b": 0.3})
        labels = dist.predicted_labels()
        assert labels == {"a": True, "b": False}

    def test_predicted_labels_tie_goes_false(self):
        dist = JointDistribution.independent({"a": 0.5})
        assert dist.predicted_labels() == {"a": False}

    def test_predicted_labels_custom_threshold(self):
        dist = JointDistribution.independent({"a": 0.6})
        assert dist.predicted_labels(threshold=0.7) == {"a": False}


class TestUtilityMethods:
    def test_copy_is_independent_and_equal(self):
        dist = two_fact_distribution()
        other = dist.copy()
        assert other is not dist
        assert other.allclose(dist)

    def test_allclose_detects_difference(self):
        a = JointDistribution.independent({"x": 0.5})
        b = JointDistribution.independent({"x": 0.6})
        assert not a.allclose(b)

    def test_allclose_requires_same_fact_order(self):
        a = JointDistribution.independent({"x": 0.5, "y": 0.5})
        b = JointDistribution.independent({"y": 0.5, "x": 0.5})
        assert not a.allclose(b)

    def test_assignments_iterates_support(self):
        dist = two_fact_distribution()
        pairs = list(dist.assignments())
        assert len(pairs) == dist.support_size
        assert sum(probability for _, probability in pairs) == pytest.approx(1.0)

    def test_repr_contains_summary(self):
        text = repr(two_fact_distribution())
        assert "facts=2" in text
        assert "support=4" in text

    def test_positions(self):
        dist = two_fact_distribution()
        assert dist.positions(("f2", "f1")) == (1, 0)

    def test_as_dict_is_a_copy(self):
        dist = two_fact_distribution()
        mapping = dist.as_dict()
        mapping.clear()
        assert dist.support_size == 4


class TestArrayPathChoice:
    """A small distribution stays on its dict loops even once its support
    arrays are cached, so reading it never changes its floats."""

    @staticmethod
    def small_priors(count=40, seed=7):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            num_facts = int(rng.integers(2, 5))
            fact_ids = tuple(f"f{i}" for i in range(num_facts))
            masses = rng.uniform(0.01, 1.0, size=1 << num_facts)
            yield JointDistribution(fact_ids, dict(enumerate(masses.tolist())))

    def test_session_leaves_small_prior_floats_unchanged(self):
        for prior in self.small_priors():
            entropy, marginals = prior.entropy(), prior.marginals()
            RefinementSession(prior, CrowdModel(0.8)).close()
            assert prior.entropy() == entropy
            assert prior.marginals() == marginals

    def test_small_posterior_reads_like_its_dict(self):
        for prior in self.small_priors(count=10, seed=8):
            session = RefinementSession(prior, CrowdModel(0.8))
            session.merge(AnswerSet.from_mapping({prior.fact_ids[0]: True}))
            posterior = session.distribution
            rebuilt = JointDistribution(
                prior.fact_ids, posterior.as_dict(), normalise=False
            )
            assert posterior.entropy() == rebuilt.entropy()
            assert posterior.marginals() == rebuilt.marginals()
            session.close()


class TestWideFactSets:
    """Distributions past 63 facts: masks exceed int64, so the array fast
    path runs on packed uint64 bit planes, with the dict path's results."""

    @staticmethod
    def wide_distribution(num_facts=70, support=40, seed=1):
        import random

        rng = random.Random(seed)
        fact_ids = tuple(f"f{i}" for i in range(num_facts))
        masks = list({rng.getrandbits(num_facts) for _ in range(support)})
        # Force at least one mask past the int64 range.
        masks[0] |= 1 << (num_facts - 1)
        probs = {mask: rng.uniform(0.1, 1.0) for mask in masks}
        return JointDistribution(fact_ids, probs)

    def test_support_arrays_are_planes(self):
        dist = self.wide_distribution()
        masks, probabilities = dist.support_arrays()
        assert masks.dtype == np.uint64
        assert masks.shape == (dist.support_size, 2)
        assert not masks.flags.writeable and not probabilities.flags.writeable
        assert probabilities.tolist() == [p for _, p in dist.items()]

    def test_entropy_and_marginals(self):
        dist = self.wide_distribution()
        entropy = dist.entropy()
        assert 0.0 < entropy <= dist.num_facts
        assert entropy == pytest.approx(entropy_of(p for _, p in dist.items()))
        marginals = dist.marginals()
        for position, fact_id in enumerate(dist.fact_ids):
            expected = sum(p for mask, p in dist.items() if mask >> position & 1)
            assert marginals[fact_id] == pytest.approx(expected)
        assert dist.marginal("f69") == marginals["f69"]

    def test_marginalize_and_condition(self):
        dist = self.wide_distribution()
        sub = dist.marginalize(["f0", "f69"])
        assert sub.num_facts == 2
        conditioned = dist.condition({"f69": True, "f3": False})
        expected = {
            mask: p
            for mask, p in dist.items()
            if mask >> 69 & 1 and not mask >> 3 & 1
        }
        assert set(conditioned.support()) == set(expected)
        assert conditioned.marginal("f69") == pytest.approx(1.0)

    def test_from_support_arrays_adopts_either_layout(self):
        from repro.core.bitplanes import pack_masks

        dist = self.wide_distribution()
        keys = list(dist.support())
        masses = np.array([p for _, p in dist.items()])
        masses[1] = 0.0
        for masks in (pack_masks(keys, dist.num_facts), np.array(keys, dtype=object)):
            rebuilt = JointDistribution.from_support_arrays(
                dist.fact_ids, masks, masses
            )
            planes, probabilities = rebuilt.support_arrays()
            assert planes.dtype == np.uint64 and planes.flags.c_contiguous
            assert rebuilt.support() == tuple(keys[:1] + keys[2:])
            assert probabilities.sum() == pytest.approx(1.0)

    def test_selection_and_merging_still_work(self):
        from repro.core.answers import AnswerSet
        from repro.core.crowd import CrowdModel
        from repro.core.merging import merge_answers
        from repro.core.selection import GreedySelector, LazyGreedySelector

        dist = self.wide_distribution()
        crowd = CrowdModel(0.8)
        plain = GreedySelector().select(dist, crowd, 2)
        lazy = LazyGreedySelector().select(dist, crowd, 2)
        assert len(plain.task_ids) == 2
        assert lazy.task_ids == plain.task_ids
        answers = AnswerSet.from_mapping({plain.task_ids[0]: True})
        posterior = merge_answers(dist, answers, crowd)
        assert posterior.support_size <= dist.support_size
