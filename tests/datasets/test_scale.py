"""The scale-corpus generator: shape, determinism, and regime edge cases."""

import numpy as np
import pytest

from repro.core.bitplanes import unpack_planes
from repro.core.crowd import CrowdModel
from repro.core.selection import GreedySelector
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.exceptions import DatasetError


class TestConfigValidation:
    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(DatasetError):
            ScaleCorpusConfig(num_facts=0)
        with pytest.raises(DatasetError):
            ScaleCorpusConfig(support_size=0)

    def test_rejects_oversized_support(self):
        with pytest.raises(DatasetError):
            ScaleCorpusConfig(num_facts=4, support_size=17)


class TestGeneration:
    def test_shape_and_normalisation(self):
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=12, support_size=1 << 10, seed=3)
        )
        assert dist.num_facts == 12
        assert dist.support_size == 1 << 10
        _, probabilities = dist.support_arrays()
        assert np.all(probabilities > 0.0)
        assert abs(probabilities.sum() - 1.0) < 1e-9

    def test_deterministic_per_seed(self):
        config = ScaleCorpusConfig(num_facts=10, support_size=256, seed=7)
        first = generate_scale_distribution(config)
        second = generate_scale_distribution(config)
        assert first.as_dict() == second.as_dict()

    def test_full_space_support_terminates(self):
        # support_size == 2^num_facts is allowed and must complete promptly
        # (the dense regime samples without replacement instead of
        # coupon-collecting uniform draws).
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=6, support_size=64, seed=0)
        )
        assert sorted(dist.support()) == list(range(64))

    def test_sparse_overshoot_trim_is_not_biased_low(self):
        # Heavy-collision sparse config: the dedup loop overshoots and must
        # trim uniformly — a sorted-prefix cut would drop the top of the
        # assignment space and flatten high-order fact columns.
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=10, support_size=384, seed=2)
        )
        masks = np.array(dist.support())
        assert masks.max() >= (1 << 10) * 3 // 4
        top_bit_rate = ((masks >> 9) & 1).mean()
        assert 0.35 < top_bit_rate < 0.65

    def test_near_full_space_support(self):
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=6, support_size=60, seed=1)
        )
        assert dist.support_size == 60
        assert len(set(dist.support())) == 60

    def test_63_fact_planes_become_an_int64_column(self):
        # 63 facts are drawn as one-word planes but fit the int64 layout.
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=63, support_size=64, seed=5)
        )
        masks, _ = dist.support_arrays()
        assert masks.dtype == np.int64 and masks.ndim == 1
        assert masks.tolist() == list(dist.support())
        assert max(dist.support()) >= 1 << 60

    def test_wide_fact_sets_use_planes_and_still_select(self):
        dist = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=70, support_size=64, seed=5)
        )
        masks, _ = dist.support_arrays()
        assert masks.dtype == np.uint64
        assert masks.shape == (64, 2)
        assert unpack_planes(masks) == list(dist.support())
        result = GreedySelector().select(dist, CrowdModel(0.8), 2)
        assert len(result.task_ids) == 2
