"""Vectorized entropy and noise-channel kernels shared by the hot paths.

Every quantity the selection algorithms evaluate reduces to three array
primitives over the output support:

* projecting support bitmasks onto a set of task positions
  (:func:`project_columns`),
* pushing a projected output distribution through the crowd's per-task
  binary symmetric channel (:func:`bsc_transform`), and
* taking the Shannon entropy of the resulting probability vector
  (:func:`entropy_bits`).

The BSC transform is the key asymptotic improvement: Equation 2 of the paper
sums ``Pc^#Same · (1 − Pc)^#Diff`` over all ``2^k × 2^k`` (answer, projection)
pairs, but the likelihood factorises over tasks, so the answer distribution is
the projected output distribution convolved with ``k`` independent two-point
kernels — ``O(k · 2^k)`` instead of ``O(4^k)``.

Because the convolution is applied one task bit at a time, nothing forces the
``k`` kernels to be identical: :func:`channel_transform` and
:func:`channel_transform_rows` accept one ``(acc_i, 1 − acc_i)`` pair per bit
at the same asymptotic cost, which is what the heterogeneous crowd channel
models (per-fact difficulty, calibrated per-domain skill) run on.  When every
per-bit accuracy is equal they perform *exactly* the floating-point operations
of the uniform transforms, in the same order, so the uniform path is a strict
special case rather than a parallel implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitplanes import project_planes

#: Rows per block of :func:`bit_column`: the shifted words of a block stay
#: in cache.
_BIT_COLUMN_BLOCK = 1 << 15

#: 16-bit popcount lookup table; :func:`popcount_array` indexes it four times
#: (shifts of 0/16/32/48) to cover the full int64 range — support masks carry
#: up to 63 bits even though projected task masks stay at 24 or fewer.
_POPCOUNT16 = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of an integer array via the 16-bit lookup table."""
    values = masks.astype(np.int64, copy=False)
    counts = _POPCOUNT16[values & 0xFFFF].astype(np.int64)
    counts += _POPCOUNT16[(values >> 16) & 0xFFFF]
    counts += _POPCOUNT16[(values >> 32) & 0xFFFF]
    counts += _POPCOUNT16[(values >> 48) & 0xFFFF]
    return counts


def entropy_bits(probabilities: np.ndarray) -> float:
    """Shannon entropy (base 2) of a probability vector, ignoring non-positive mass.

    Tiny negative values (floating-point residue of incremental updates) are
    treated as zero, like exact zeros.
    """
    positive = probabilities[probabilities > 0.0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum())


def project_columns(masks: np.ndarray, positions: "tuple[int, ...]") -> np.ndarray:
    """Vectorised :func:`repro.core.assignment.project_mask` over a mask array.

    Bit ``i`` of each result is bit ``positions[i]`` of the corresponding
    mask.  ``masks`` is either layout of
    :meth:`~repro.core.distribution.JointDistribution.support_arrays`: an
    ``int64`` column (<= 63 facts) or packed ``(rows, words)`` uint64 bit
    planes (see :mod:`repro.core.bitplanes`).  The projection fits ``int64``
    (task sets are <= 24 bits) and is returned as such.
    """
    if masks.ndim == 2:
        return project_planes(masks, positions)
    projected = np.zeros(masks.shape[0], dtype=np.int64)
    for index, position in enumerate(positions):
        projected |= ((masks >> position) & 1) << index
    return projected


def bit_column(masks: np.ndarray, position: int) -> np.ndarray:
    """0/1 ``int8`` truth column of bit ``position`` over any mask layout.

    The single dispatch point the bit-column consumers (the engine's cached
    columns, Bayesian merging, distribution marginals) share: an ``int64``
    column uses the shift/AND idiom, packed uint64 planes extract from the
    word holding the bit.  The words are shifted one block of rows at a
    time, so no temporary of 8 bytes per support row is written.
    """
    if masks.ndim == 2:
        words, shift, one = masks[:, position >> 6], np.uint64(position & 63), np.uint64(1)
    else:
        words, shift, one = masks, position, 1
    column = np.empty(words.shape[0], dtype=np.int8)
    for start in range(0, words.shape[0], _BIT_COLUMN_BLOCK):
        block = words[start:start + _BIT_COLUMN_BLOCK] >> shift
        block &= one
        column[start:start + _BIT_COLUMN_BLOCK] = block
    return column


def _flip(array: np.ndarray, axis: int) -> np.ndarray:
    """``np.flip(array, axis)`` as one basic slice (the same view, without
    ``np.flip``'s axis normalisation — the channel butterflies below call it
    once per task bit on small tables, where that overhead dominates)."""
    return array[(slice(None),) * axis + (slice(None, None, -1),)]


def bsc_transform(vector: np.ndarray, num_bits: int, accuracy: float) -> np.ndarray:
    """Push a ``2^num_bits`` mass vector through ``num_bits`` independent BSCs.

    ``vector[s]`` is the aggregate probability of outputs whose projection onto
    the task set is ``s``; the result's entry ``a`` is
    ``Σ_s vector[s] · Pc^#Same(a, s) · (1 − Pc)^#Diff(a, s)`` — Equation 2,
    computed one task bit at a time in ``O(num_bits · 2^num_bits)``.
    """
    result = np.asarray(vector, dtype=np.float64)
    if num_bits == 0 or accuracy == 1.0:
        return result.copy()
    error = 1.0 - accuracy
    result = result.reshape((2,) * num_bits)
    for axis in range(num_bits):
        result = accuracy * result + error * _flip(result, axis)
    return result.reshape(-1)


def bsc_transform_rows(matrix: np.ndarray, num_bits: int, accuracy: float) -> np.ndarray:
    """Apply :func:`bsc_transform` to every row of a ``(groups, 2^num_bits)`` matrix.

    Used when the support is partitioned (e.g. by a facts-of-interest cell) and
    each group's projected distribution goes through the same noise channel.
    """
    result = np.asarray(matrix, dtype=np.float64)
    if num_bits == 0 or accuracy == 1.0:
        return result.copy()
    error = 1.0 - accuracy
    groups = result.shape[0]
    result = result.reshape((groups,) + (2,) * num_bits)
    for axis in range(1, num_bits + 1):
        result = accuracy * result + error * _flip(result, axis)
    return result.reshape(groups, -1)


def channel_transform(vector: np.ndarray, accuracies: np.ndarray) -> np.ndarray:
    """Heterogeneous :func:`bsc_transform`: one 2×2 channel per task bit.

    ``accuracies[i]`` is the worker-correctness probability of the task that
    occupies **bit ``i``** of the answer index (least-significant-bit first,
    matching :func:`project_columns`, which packs ``positions[i]`` into bit
    ``i``).  Each bit is convolved with its own two-point kernel
    ``(acc_i, 1 − acc_i)``; identity channels (``acc_i == 1``) are skipped.

    The per-axis operation — and the axis iteration order — is exactly that
    of :func:`bsc_transform`, so passing ``k`` equal accuracies reproduces the
    uniform transform bit-for-bit.
    """
    result = np.asarray(vector, dtype=np.float64)
    num_bits = len(accuracies)
    if num_bits == 0:
        return result.copy()
    result = result.reshape((2,) * num_bits)
    touched = False
    # Axis 0 holds the most significant bit, so the accuracy of bit i lives
    # at axis (num_bits − 1 − i); iterating axes 0..k−1 matches the uniform
    # transform's operation order exactly.
    for axis in range(num_bits):
        accuracy = float(accuracies[num_bits - 1 - axis])
        if accuracy == 1.0:
            continue
        result = accuracy * result + (1.0 - accuracy) * _flip(result, axis)
        touched = True
    result = result.reshape(-1)
    return result if touched else result.copy()


def channel_transform_rows(matrix: np.ndarray, accuracies: np.ndarray) -> np.ndarray:
    """Apply :func:`channel_transform` to every row of a ``(groups, 2^k)`` matrix.

    ``accuracies`` follows the same least-significant-bit-first convention:
    ``accuracies[i]`` belongs to the task at bit ``i`` of the column index.
    With all-equal accuracies this is bit-for-bit
    :func:`bsc_transform_rows`.
    """
    result = np.asarray(matrix, dtype=np.float64)
    num_bits = len(accuracies)
    if num_bits == 0:
        return result.copy()
    groups = result.shape[0]
    result = result.reshape((groups,) + (2,) * num_bits)
    touched = False
    for axis in range(1, num_bits + 1):
        accuracy = float(accuracies[num_bits - axis])
        if accuracy == 1.0:
            continue
        result = accuracy * result + (1.0 - accuracy) * _flip(result, axis)
        touched = True
    result = result.reshape(groups, -1)
    return result if touched else result.copy()
