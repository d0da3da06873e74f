"""Packed uint64 bit planes: round-trips and equivalence with Python ints.

The packed representation holds the masks of wide fact sets, so these tests
pin two things: the pack/unpack round-trip is lossless for arbitrary widths,
and every consumer primitive (``project_columns``, ``bit_column``) produces
bit-identical results on the packed planes and on the Python-int masks they
pack.  The Python-int semantics (:func:`repro.core.assignment.project_mask`)
are pinned first — they are the reference the planes must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import project_mask
from repro.core.bitplanes import (
    pack_masks,
    plane_bit_column,
    plane_count,
    project_planes,
    unpack_planes,
)
from repro.core.entropy import bit_column, project_columns


@st.composite
def wide_mask_sets(draw, min_facts=64, max_facts=200, max_rows=24):
    """Random Python-int masks over a wide (>63) fact set."""
    num_facts = draw(st.integers(min_value=min_facts, max_value=max_facts))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << num_facts) - 1),
            min_size=1,
            max_size=max_rows,
        )
    )
    return num_facts, rows


@st.composite
def any_width_mask_sets(draw):
    """Mask sets from 1 to 200 facts — narrow widths included."""
    num_facts = draw(st.integers(min_value=1, max_value=200))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << num_facts) - 1),
            min_size=1,
            max_size=16,
        )
    )
    return num_facts, rows


class TestPlaneCount:
    def test_word_boundaries(self):
        assert plane_count(1) == 1
        assert plane_count(63) == 1
        assert plane_count(64) == 1
        assert plane_count(65) == 2
        assert plane_count(128) == 2
        assert plane_count(129) == 3


class TestRoundTrip:
    @given(any_width_mask_sets())
    @settings(max_examples=150, deadline=None)
    def test_pack_unpack_round_trip(self, case):
        num_facts, rows = case
        planes = pack_masks(rows, num_facts)
        assert planes.dtype == np.uint64
        assert planes.shape == (len(rows), plane_count(num_facts))
        assert unpack_planes(planes) == rows

    def test_pack_accepts_plain_iterables(self):
        rows = [0, (1 << 100) - 1, 1 << 77]
        planes = pack_masks(rows, 101)
        assert unpack_planes(planes) == rows
        assert pack_masks(iter(rows), 101).tolist() == planes.tolist()

    def test_pack_narrow_int64_column(self):
        masks = np.array([0, 5, (1 << 62) - 1], dtype=np.int64)
        planes = pack_masks(masks, 63)
        assert planes.shape == (3, 1)
        assert unpack_planes(planes) == masks.tolist()


class TestPythonIntReference:
    """Pin the Python-int semantics the planes must reproduce."""

    def test_project_mask_wide_semantics(self):
        # Hand-computed reference: project facts (2, 65, 100) of each mask
        # into bits (0, 1, 2).
        rows = [
            (1 << 2) | (1 << 65),
            (1 << 100),
            (1 << 2) | (1 << 65) | (1 << 100),
            0,
        ]
        expected = [0b011, 0b100, 0b111, 0b000]
        assert [project_mask(mask, (2, 65, 100)) for mask in rows] == expected
        projected = project_columns(pack_masks(rows, 101), (2, 65, 100))
        assert projected.dtype == np.int64
        assert projected.tolist() == expected

    @given(wide_mask_sets())
    @settings(max_examples=100, deadline=None)
    def test_project_mask_matches_per_element_python(self, case):
        num_facts, rows = case
        positions = tuple(
            sorted({0, num_facts - 1, num_facts // 2, num_facts // 3})
        )
        reference = [
            sum(((mask >> position) & 1) << index
                for index, position in enumerate(positions))
            for mask in rows
        ]
        assert [project_mask(mask, positions) for mask in rows] == reference


class TestPackedEquivalence:
    @given(wide_mask_sets())
    @settings(max_examples=100, deadline=None)
    def test_project_columns_packed_matches_project_mask(self, case):
        num_facts, rows = case
        planes = pack_masks(rows, num_facts)
        positions = tuple(
            sorted({0, 1, num_facts - 1, num_facts // 2, 63 % num_facts})
        )
        via_planes = project_columns(planes, positions)
        assert via_planes.dtype == np.int64
        assert via_planes.tolist() == [project_mask(mask, positions) for mask in rows]

    @given(wide_mask_sets())
    @settings(max_examples=100, deadline=None)
    def test_bit_column_packed_matches_python_ints(self, case):
        num_facts, rows = case
        planes = pack_masks(rows, num_facts)
        for position in sorted({0, 63 % num_facts, num_facts - 1}):
            expected = [(mask >> position) & 1 for mask in rows]
            column = plane_bit_column(planes, position)
            assert column.dtype == np.int8
            assert column.tolist() == expected
            assert bit_column(planes, position).tolist() == expected

    def test_project_planes_empty_positions(self):
        planes = pack_masks([5, 9], 70)
        assert project_planes(planes, ()).tolist() == [0, 0]
        assert project_columns(planes, ()).tolist() == [0, 0]

    def test_bit_column_narrow_int64_path(self):
        masks = np.array([0b101, 0b010], dtype=np.int64)
        assert bit_column(masks, 0).tolist() == [1, 0]
        assert bit_column(masks, 1).tolist() == [0, 1]
        assert bit_column(masks, 2).tolist() == [1, 0]


class TestValidation:
    def test_pack_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            pack_masks([1], 0)

    def test_bit_column_rejects_out_of_range_position(self):
        planes = pack_masks([1], 64)
        with pytest.raises(IndexError):
            plane_bit_column(planes, 64)
