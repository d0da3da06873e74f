"""Unit tests for the shared vectorized kernels in ``repro.core.entropy``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import popcount
from repro.core.entropy import (
    bsc_transform,
    bsc_transform_rows,
    entropy_bits,
    popcount_array,
    project_columns,
)
from repro.core.selection.preprocessing import _noise_kernel


class TestPopcount:
    def test_scalar_matches_bin_count(self):
        for value in [0, 1, 2, 3, 255, 256, 0b1011011, (1 << 40) - 1]:
            assert popcount(value) == bin(value).count("1")

    def test_array_matches_scalar(self):
        values = np.array([0, 1, 7, 1 << 16, (1 << 20) - 1, 123456789], dtype=np.int64)
        expected = [popcount(int(v)) for v in values]
        assert popcount_array(values).tolist() == expected

    def test_array_handles_wide_masks(self):
        value = (1 << 50) | (1 << 33) | (1 << 17) | 1
        assert popcount_array(np.array([value])).tolist() == [4]

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1),
                    min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_array_matches_bin_count_on_random_masks(self, values):
        counts = popcount_array(np.array(values, dtype=np.int64))
        assert counts.tolist() == [bin(value).count("1") for value in values]


class TestEntropyBits:
    def test_matches_manual(self):
        assert entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0)
        assert entropy_bits(np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_ignores_negative_residue(self):
        # Incremental subtraction can leave ~-1e-16 entries; they carry no mass.
        assert entropy_bits(np.array([1.0, -1e-16])) == pytest.approx(0.0)

    def test_empty_support(self):
        assert entropy_bits(np.array([])) == 0.0


class TestProjectColumns:
    def test_matches_scalar_projection(self):
        from repro.core.assignment import project_mask

        masks = np.array([0b1010, 0b0111, 0b1100], dtype=np.int64)
        positions = (3, 1)
        expected = [project_mask(int(m), positions) for m in masks]
        assert project_columns(masks, positions).tolist() == expected


class TestBscTransform:
    @pytest.mark.parametrize("num_bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("accuracy", [0.5, 0.6, 0.8, 0.95, 1.0])
    def test_matches_dense_kernel(self, num_bits, accuracy):
        """The factorised channel must equal the dense Equation-2 kernel."""
        rng = np.random.default_rng(num_bits * 10 + int(accuracy * 100))
        vector = rng.uniform(0.0, 1.0, size=1 << num_bits)
        dense = _noise_kernel(num_bits, accuracy) @ vector
        fast = bsc_transform(vector, num_bits, accuracy)
        assert np.allclose(fast, dense, atol=1e-12)

    def test_preserves_total_mass(self):
        vector = np.array([0.1, 0.2, 0.3, 0.4])
        out = bsc_transform(vector, 2, 0.8)
        assert out.sum() == pytest.approx(vector.sum())

    def test_zero_bits_is_identity(self):
        vector = np.array([1.0])
        assert bsc_transform(vector, 0, 0.7).tolist() == [1.0]

    def test_rows_variant_matches_per_row(self):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.0, 1.0, size=(5, 8))
        rows = bsc_transform_rows(matrix, 3, 0.75)
        for index in range(matrix.shape[0]):
            assert np.allclose(rows[index], bsc_transform(matrix[index], 3, 0.75))

    def test_does_not_mutate_input(self):
        vector = np.array([0.25, 0.75])
        bsc_transform(vector, 1, 0.9)
        assert vector.tolist() == [0.25, 0.75]
