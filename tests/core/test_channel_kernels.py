"""Heterogeneous channel kernels vs. the uniform BSC transforms.

Two contracts anchor the heterogeneous-channel refactor:

* **bit-for-bit degeneration** — ``channel_transform`` (and its row variant)
  with ``k`` equal accuracies must perform exactly the floating-point
  operations of ``bsc_transform`` (``bsc_transform_rows``), making the
  uniform path a strict special case rather than a parallel implementation;
* **Equation-2 correctness** — with distinct per-bit accuracies the result
  must match the dense per-(answer, projection) sum
  ``Σ_s v[s] · Π_i (acc_i if a_i = s_i else 1 − acc_i)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entropy import (
    bsc_transform,
    bsc_transform_rows,
    channel_transform,
    channel_transform_rows,
)

accuracy_values = st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 0.97, 1.0])


@st.composite
def mass_vectors(draw, max_bits=4):
    """A non-negative mass vector over ``2^k`` answer slots, with its ``k``."""
    k = draw(st.integers(min_value=0, max_value=max_bits))
    masses = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=1 << k,
            max_size=1 << k,
        )
    )
    return np.array(masses, dtype=np.float64), k


@st.composite
def probability_tables(draw, max_bits=4, max_rows=5):
    """Row tables like the engine's grouped state: ``(rows, 2^k)`` masses in [0, 1]."""
    k = draw(st.integers(min_value=0, max_value=max_bits))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    masses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=rows << k,
            max_size=rows << k,
        )
    )
    return np.array(masses, dtype=np.float64).reshape(rows, 1 << k), k


def dense_channel_reference(vector, accuracies):
    """Equation 2 the slow way: one term per (answer, projection) pair."""
    k = len(accuracies)
    out = np.zeros_like(vector)
    for answer in range(1 << k):
        total = 0.0
        for projection in range(1 << k):
            term = vector[projection]
            for bit, accuracy in enumerate(accuracies):
                same = ((answer >> bit) & 1) == ((projection >> bit) & 1)
                term *= accuracy if same else 1.0 - accuracy
            total += term
        out[answer] = total
    return out


class TestUniformDegeneration:
    @given(mass_vectors(), accuracy_values)
    @settings(max_examples=80, deadline=None)
    def test_equal_accuracies_reproduce_bsc_transform_bitwise(self, vector_k, accuracy):
        vector, k = vector_k
        uniform = bsc_transform(vector, k, accuracy)
        heterogeneous = channel_transform(vector, np.full(k, accuracy))
        assert heterogeneous.shape == uniform.shape
        # Bit-for-bit: same operations in the same order, not just approx.
        assert np.array_equal(heterogeneous, uniform)

    @given(mass_vectors(), accuracy_values, st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_equal_accuracies_reproduce_bsc_transform_rows_bitwise(
        self, vector_k, accuracy, groups
    ):
        vector, k = vector_k
        matrix = np.vstack([np.roll(vector, shift) for shift in range(groups)])
        uniform = bsc_transform_rows(matrix, k, accuracy)
        heterogeneous = channel_transform_rows(matrix, np.full(k, accuracy))
        assert np.array_equal(heterogeneous, uniform)

    def test_zero_bits_returns_copy(self):
        vector = np.array([0.25, 0.75])
        result = channel_transform(vector, np.empty(0))
        # k = 0 means "no channels": the (length 2^0 = 1 would be usual, but
        # any vector must come back unchanged and decoupled from the input).
        assert np.array_equal(result, vector)
        result[0] = 99.0
        assert vector[0] == 0.25


class TestHeterogeneousCorrectness:
    @given(
        mass_vectors(max_bits=3),
        st.lists(accuracy_values, min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, vector_k, accuracy_list):
        vector, k = vector_k
        accuracies = np.array(accuracy_list[:k], dtype=np.float64)
        expected = dense_channel_reference(vector, accuracies)
        actual = channel_transform(vector, accuracies)
        assert actual == pytest.approx(expected, abs=1e-9)

    def test_bit_order_convention_lsb_first(self):
        # Mass concentrated on projection 0b01 (bit 0 set); a perfect channel
        # on bit 0 and a noisy channel on bit 1 must spread mass only along
        # the bit-1 axis.
        vector = np.array([0.0, 1.0, 0.0, 0.0])
        accuracies = np.array([1.0, 0.8])  # bit 0 perfect, bit 1 at 0.8
        result = channel_transform(vector, accuracies)
        assert result == pytest.approx([0.0, 0.8, 0.0, 0.2])

    def test_identity_channels_are_skipped(self):
        vector = np.array([0.1, 0.2, 0.3, 0.4])
        result = channel_transform(vector, np.array([1.0, 1.0]))
        assert np.array_equal(result, vector)
        # And the result is a copy, not a view of the input.
        result[0] = 9.0
        assert vector[0] == 0.1

    def test_rows_match_per_row_transform(self):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.0, 1.0, size=(5, 8))
        accuracies = np.array([0.6, 0.9, 0.75])
        rows = channel_transform_rows(matrix, accuracies)
        for index in range(matrix.shape[0]):
            assert rows[index] == pytest.approx(
                channel_transform(matrix[index], accuracies), abs=1e-12
            )

    def test_mass_is_conserved(self):
        rng = np.random.default_rng(11)
        vector = rng.uniform(0.0, 1.0, size=16)
        accuracies = np.array([0.55, 0.7, 0.85, 1.0])
        result = channel_transform(vector, accuracies)
        assert result.sum() == pytest.approx(vector.sum())
        assert (result >= 0.0).all()


class TestRowTransformsMatchDenseReference:
    """The row variants the candidate scan runs, row by row against Equation 2."""

    @given(probability_tables(), st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_bsc_transform_rows(self, table_k, accuracy):
        table, k = table_k
        actual = bsc_transform_rows(table, k, accuracy)
        for row, result in zip(table, actual):
            expected = dense_channel_reference(row, np.full(k, accuracy))
            np.testing.assert_allclose(result, expected, atol=1e-12)

    @given(probability_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_channel_transform_rows(self, table_k, data):
        table, k = table_k
        accuracies = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
                    min_size=k,
                    max_size=k,
                )
            ),
            dtype=np.float64,
        )
        actual = channel_transform_rows(table, accuracies)
        for row, result in zip(table, actual):
            np.testing.assert_allclose(
                result, dense_channel_reference(row, accuracies), atol=1e-12
            )
