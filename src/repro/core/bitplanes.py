"""Packed uint64 bit planes: the wide-fact support representation.

Distributions of up to 63 facts keep their support masks in one ``int64``
column and every engine kernel is a handful of vectorized integer ops.  Past
63 facts a mask no longer fits a machine word, so the support is packed into
``(rows, ceil(num_facts / 64))`` arrays of ``uint64`` words: bit ``j`` of
word ``w`` of a row is bit ``64 * w + j`` of the row's assignment mask
(little-endian words, matching ``int.from_bytes(..., "little")``).  Every
hot-path consumer extracts single-fact columns or small projections from the
planes with the same vectorized shift/AND idiom the ``int64`` path uses, so
100–500-fact corpora stay on contiguous numeric arrays end to end.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: All 64 bits of one plane word.
_WORD_MASK = (1 << 64) - 1


def plane_count(num_facts: int) -> int:
    """Number of uint64 words needed to hold ``num_facts`` bits per row."""
    return (num_facts + 63) >> 6


def pack_masks(masks, num_facts: int) -> np.ndarray:
    """Pack integer assignment masks into ``(rows, plane_count)`` uint64 planes.

    ``masks`` may be an ``int64`` array (63-fact fast path) or any iterable
    of non-negative ints.  Word ``w`` of a row holds mask bits
    ``[64w, 64w + 63]``.
    """
    if num_facts < 1:
        raise ValueError(f"num_facts must be positive, got {num_facts}")
    words = plane_count(num_facts)
    if isinstance(masks, np.ndarray) and masks.dtype.kind in "iu":
        rows = masks.shape[0]
        planes = np.zeros((rows, words), dtype=np.uint64)
        # int64 masks are non-negative by construction (<= 63 usable bits),
        # so the unsigned view is value-preserving.
        planes[:, 0] = masks.astype(np.uint64)
        return planes
    values = [int(mask) for mask in masks]
    planes = np.empty((len(values), words), dtype=np.uint64)
    for word in range(words):
        shift = word << 6
        planes[:, word] = np.fromiter(
            ((value >> shift) & _WORD_MASK for value in values),
            dtype=np.uint64,
            count=len(values),
        )
    return planes


def unpack_planes(planes: np.ndarray) -> List[int]:
    """Inverse of :func:`pack_masks`: planes back to a list of Python ints.

    Row order is preserved; the ints are arbitrary-precision, so the result
    round-trips any fact width.
    """
    contiguous = np.ascontiguousarray(planes, dtype=np.uint64)
    rows, words = contiguous.shape
    row_bytes = contiguous.tobytes()
    stride = words * 8
    return [
        int.from_bytes(row_bytes[start : start + stride], "little")
        for start in range(0, rows * stride, stride)
    ]


def plane_bit_column(planes: np.ndarray, position: int) -> np.ndarray:
    """0/1 ``int8`` column of bit ``position`` over all rows of the planes."""
    word = position >> 6
    shift = np.uint64(position & 63)
    return ((planes[:, word] >> shift) & np.uint64(1)).astype(np.int8)


def project_planes(planes: np.ndarray, positions: "Sequence[int]") -> np.ndarray:
    """Packed-plane counterpart of :func:`repro.core.entropy.project_columns`.

    Bit ``i`` of each result is bit ``positions[i]`` of the corresponding
    row; projections are task-set sized (<= 24 bits) and returned as
    ``int64``.
    """
    projected = np.zeros(planes.shape[0], dtype=np.int64)
    for index, position in enumerate(positions):
        word = position >> 6
        shift = np.uint64(position & 63)
        column = ((planes[:, word] >> shift) & np.uint64(1)).astype(np.int64)
        projected |= column << index
    return projected
