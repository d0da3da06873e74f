"""The kernel registry: one selection hot loop, three interchangeable tiers.

Scoring a greedy candidate is a short fixed pipeline — mask the probability
vector to the candidate's true rows, group it by the cached partition key,
push the grouped table through the per-bit noise channels, and take two
entropies.  The :mod:`repro.core.selection.engine` runs that pipeline; this
module lets the same engine swap the *implementation* of the pipeline without
changing a single selection:

``compiled``
    The loop bodies below JIT-compiled by :mod:`numba` (an optional extra:
    ``pip install .[compiled]``).  The whole per-candidate scan — masked
    bincount, channel butterflies, entropy accumulation — fuses into one
    native call with zero temporary arrays, which is where sub-millisecond
    greedy rounds at ``2^20`` supports come from.
``numpy``
    The vectorized primitives from :mod:`repro.core.entropy`, applied by
    :meth:`~repro.core.selection.engine.EntropyEngine.scan` to a whole block
    of candidates at once — a fixed number of NumPy calls per block rather
    than per candidate.  Always available; the default wherever numba is not
    importable.
``reference``
    The *same* loop bodies as ``compiled``, executed as plain Python.  Slow,
    but dependency-free — it exists so the compiled algorithm is testable
    (and equivalence-gated against the numpy tier) on hosts without numba.

The fused tiers score one candidate per kernel call; the engine's scan loops
over the kernel.

Tier selection happens at :class:`~repro.core.selection.engine.EntropyEngine`
construction through :attr:`repro.core.runtime.RuntimeOptions.kernel`:
``auto`` (the default) resolves to ``compiled`` when numba is importable and
JIT is not disabled, else ``numpy``; the ``REPRO_KERNEL`` environment
variable overrides the auto choice, and an explicit ``compiled`` request on a
numba-less host degrades to ``numpy`` with a one-time log line — never an
import error.

Numerical contract: every tier's selections are identical and its entropies
agree within 1e-9.  The masked bincount accumulates in support order exactly
like ``np.bincount``; the channel butterflies perform the same two-point
convolution per (pair, axis) as the ``accuracy * x + error * flip(x)``
NumPy kernels; only the final entropy reductions may differ from NumPy's
pairwise summation at the ~1e-16 level, far inside the engines' 1e-9 gate
and the selectors' tie tolerances.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.entropy import (
    bsc_transform_rows,
    channel_transform_rows,
    popcount_array,
)
from repro.exceptions import CrowdFusionError

logger = logging.getLogger(__name__)

#: The implementation tiers, fastest first.
KERNEL_TIERS = ("compiled", "numpy", "reference")

#: Valid values of ``RuntimeOptions.kernel`` / ``--kernel`` / ``REPRO_KERNEL``.
KERNEL_CHOICES = ("auto",) + KERNEL_TIERS

#: Environment variable overriding the ``auto`` tier choice.
KERNEL_ENV_VAR = "REPRO_KERNEL"


# -- njit-compatible loop bodies ----------------------------------------------------
#
# Each function below is written in the scalar-loop subset numba's nopython
# mode compiles directly: the ``compiled`` tier is literally
# ``njit(function)``, and the ``reference`` tier is the same object executed
# by CPython.  They are self-contained on purpose (the channel butterfly is
# inlined rather than shared) so each compiles as a single unit.


def _popcount_impl(values):
    """Per-element popcount of an int64 array (Kernighan clears)."""
    counts = np.zeros(values.shape[0], dtype=np.int64)
    for index in range(values.shape[0]):
        value = values[index]
        count = 0
        while value:
            value &= value - 1
            count += 1
        counts[index] = count
    return counts


def _bsc_transform_rows_impl(matrix, num_bits, accuracy):
    """Loop form of :func:`repro.core.entropy.bsc_transform_rows`.

    In-place butterflies on a copy: for each bit axis, every column pair
    ``(a, a | bit)`` becomes ``(acc·x + err·y, acc·y + err·x)`` — exactly the
    per-element arithmetic of ``accuracy * m + error * flip(m, axis)``.
    """
    result = matrix.copy()
    if num_bits == 0 or accuracy == 1.0:
        return result
    error = 1.0 - accuracy
    groups = result.shape[0]
    stride = result.shape[1]
    for axis in range(1, num_bits + 1):
        bit = 1 << (num_bits - axis)
        for group in range(groups):
            for column in range(stride):
                if column & bit == 0:
                    x = result[group, column]
                    y = result[group, column | bit]
                    result[group, column] = accuracy * x + error * y
                    result[group, column | bit] = accuracy * y + error * x
    return result


def _channel_transform_rows_impl(matrix, accuracies):
    """Loop form of :func:`repro.core.entropy.channel_transform_rows`.

    ``accuracies[i]`` belongs to the task at bit ``i`` of the column index
    (least-significant-bit first); identity channels are skipped, and equal
    accuracies reproduce :func:`_bsc_transform_rows_impl` bit for bit.
    """
    result = matrix.copy()
    num_bits = accuracies.shape[0]
    groups = result.shape[0]
    stride = result.shape[1]
    for axis in range(1, num_bits + 1):
        accuracy = accuracies[num_bits - axis]
        if accuracy == 1.0:
            continue
        error = 1.0 - accuracy
        bit = 1 << (num_bits - axis)
        for group in range(groups):
            for column in range(stride):
                if column & bit == 0:
                    x = result[group, column]
                    y = result[group, column | bit]
                    result[group, column] = accuracy * x + error * y
                    result[group, column | bit] = accuracy * y + error * x
    return result


def _refine_partition_impl(projection, bits, cell_index, width):
    """Fused partition refinement: new projection and bincount key in one pass.

    Integer-only (bit-identical to the vectorized
    ``(projection << 1) | bits`` / ``(cell << width) | projection`` pair).
    """
    rows = projection.shape[0]
    refined = np.empty(rows, dtype=np.int64)
    combined = np.empty(rows, dtype=np.int64)
    for index in range(rows):
        value = (projection[index] << 1) | np.int64(bits[index])
        refined[index] = value
        combined[index] = (cell_index[index] << width) | value
    return refined, combined


def _extension_scan_impl(
    combined,
    bits,
    probabilities,
    table,
    num_cells,
    width,
    bit_accuracies,
    uniform_accuracy,
    candidate_accuracy,
):
    """The fused per-candidate conditional-entropy scan.

    One pass produces ``(H(T ∪ {f}), H(I, T ∪ {f}))`` for a candidate fact:

    1. masked bincount — the candidate's true mass grouped by the cached
       ``(cell << width) | projection`` key (support order, like
       ``np.bincount``);
    2. channel butterflies over the selected bits (``uniform_accuracy`` when
       non-negative, else per-bit ``bit_accuracies``, LSB first);
    3. the candidate's own 2×2 channel, with the false-branch mass recovered
       by linearity from the state's cached ``table`` (clamped at zero like
       the NumPy path);
    4. entropy accumulation, summing cell-marginalised columns only when the
       engine actually partitions by facts of interest.
    """
    stride = np.int64(1) << width
    size = np.int64(num_cells) * stride
    grouped = np.zeros(size, dtype=np.float64)
    for row in range(combined.shape[0]):
        if bits[row] != 0:
            grouped[combined[row]] += probabilities[row]
    for axis in range(1, width + 1):
        if uniform_accuracy >= 0.0:
            accuracy = uniform_accuracy
        else:
            accuracy = bit_accuracies[width - axis]
        if accuracy == 1.0:
            continue
        error = 1.0 - accuracy
        bit = np.int64(1) << (width - axis)
        for cell in range(num_cells):
            base = cell * stride
            for column in range(stride):
                if column & bit == 0:
                    low = base + column
                    high = low + bit
                    x = grouped[low]
                    y = grouped[high]
                    grouped[low] = accuracy * x + error * y
                    grouped[high] = accuracy * y + error * x
    error = 1.0 - candidate_accuracy
    joint_entropy = 0.0
    column_false = np.zeros(stride, dtype=np.float64)
    column_true = np.zeros(stride, dtype=np.float64)
    for cell in range(num_cells):
        base = cell * stride
        for column in range(stride):
            mass_true = grouped[base + column]
            mass_false = table[base + column] - mass_true
            if mass_false < 0.0:
                mass_false = 0.0
            answer_true = candidate_accuracy * mass_true + error * mass_false
            answer_false = error * mass_true + candidate_accuracy * mass_false
            if answer_false > 0.0:
                joint_entropy -= answer_false * math.log2(answer_false)
            if answer_true > 0.0:
                joint_entropy -= answer_true * math.log2(answer_true)
            if num_cells > 1:
                column_false[column] += answer_false
                column_true[column] += answer_true
    if num_cells == 1:
        return joint_entropy, joint_entropy
    task_entropy = 0.0
    for column in range(stride):
        value = column_false[column]
        if value > 0.0:
            task_entropy -= value * math.log2(value)
        value = column_true[column]
        if value > 0.0:
            task_entropy -= value * math.log2(value)
    return task_entropy, joint_entropy


# -- the registry -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSet:
    """One resolved tier: the callables an :class:`EntropyEngine` dispatches to.

    ``extension_scan`` and ``refine_partition`` are ``None`` on the ``numpy``
    tier — the engine then scores whole candidate blocks with its batched
    vectorized pipeline — and fused per-candidate loop kernels on the
    ``compiled`` and ``reference`` tiers.
    """

    tier: str
    popcount: Callable
    bsc_transform_rows: Callable
    channel_transform_rows: Callable
    extension_scan: Optional[Callable]
    refine_partition: Optional[Callable]


_KERNEL_SETS: "dict[str, KernelSet]" = {}
_WARMED: "set[str]" = set()
#: One-time flag for the compiled→numpy degradation log line.
_fallback_logged = False


def _import_numba():
    """Import hook for :mod:`numba`; tests monkeypatch this to simulate CI
    hosts without the optional extra."""
    import numba

    return numba


def jit_disabled() -> bool:
    """Whether the ``NUMBA_DISABLE_JIT`` escape hatch is active.

    With JIT disabled numba runs ``njit`` bodies as plain Python — strictly
    slower than the numpy tier — so the registry treats it like a missing
    dependency and resolves to ``numpy``.
    """
    return os.environ.get("NUMBA_DISABLE_JIT", "").strip() not in ("", "0")


def numba_available() -> bool:
    """Whether the compiled tier can actually JIT on this host."""
    if jit_disabled():
        return False
    try:
        _import_numba()
    except Exception:
        return False
    return True


def _log_fallback_once(reason: str) -> None:
    global _fallback_logged
    if _fallback_logged:
        return
    _fallback_logged = True
    logger.warning(
        "compiled kernel tier unavailable (%s); falling back to the numpy "
        "tier — selections are identical, only the scan speed differs",
        reason,
    )


def _build_tier(tier: str) -> KernelSet:
    if tier == "numpy":
        return KernelSet(
            tier="numpy",
            popcount=popcount_array,
            bsc_transform_rows=bsc_transform_rows,
            channel_transform_rows=channel_transform_rows,
            extension_scan=None,
            refine_partition=None,
        )
    if tier == "reference":
        return KernelSet(
            tier="reference",
            popcount=_popcount_impl,
            bsc_transform_rows=_bsc_transform_rows_impl,
            channel_transform_rows=_channel_transform_rows_impl,
            extension_scan=_extension_scan_impl,
            refine_partition=_refine_partition_impl,
        )
    numba = _import_numba()
    jit = numba.njit(cache=True, nogil=True)
    return KernelSet(
        tier="compiled",
        popcount=jit(_popcount_impl),
        bsc_transform_rows=jit(_bsc_transform_rows_impl),
        channel_transform_rows=jit(_channel_transform_rows_impl),
        extension_scan=jit(_extension_scan_impl),
        refine_partition=jit(_refine_partition_impl),
    )


def resolve_kernels(kernel: str = "auto") -> KernelSet:
    """Resolve a tier request (``auto``/``compiled``/``numpy``/``reference``).

    ``auto`` honours the ``REPRO_KERNEL`` environment variable, then detects
    numba.  A host that cannot compile — numba missing, or
    ``NUMBA_DISABLE_JIT`` set — degrades every ``compiled`` request to
    ``numpy`` with a one-time log line; it never raises an import error.
    """
    choice = (kernel or "auto").strip().lower()
    if choice not in KERNEL_CHOICES:
        raise CrowdFusionError(
            f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}"
        )
    if choice == "auto":
        override = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
        if override and override != "auto":
            if override not in KERNEL_TIERS:
                raise CrowdFusionError(
                    f"{KERNEL_ENV_VAR} must be one of {KERNEL_CHOICES}, "
                    f"got {override!r}"
                )
            choice = override
        else:
            choice = "compiled" if numba_available() else "numpy"
    if choice == "compiled" and not numba_available():
        _log_fallback_once(
            "NUMBA_DISABLE_JIT is set" if jit_disabled() else "numba is not importable"
        )
        choice = "numpy"
    cached = _KERNEL_SETS.get(choice)
    if cached is None:
        cached = _build_tier(choice)
        _KERNEL_SETS[choice] = cached
    return cached


def warmup(kernels: KernelSet) -> None:
    """Force-compile every kernel of a tier on tiny inputs (idempotent).

    Called by the parallel evaluators immediately before forking a worker
    pool so the JIT cost is paid exactly once in the parent — workers inherit
    the compiled machine code through copy-on-write memory instead of each
    stalling on its own compilation.  The numpy tier has nothing to compile;
    the reference tier runs the same calls for free, keeping one code path.
    """
    if kernels.tier in _WARMED:
        return
    if kernels.extension_scan is not None:
        combined = np.zeros(2, dtype=np.int64)
        bits = np.array([1, 0], dtype=np.int8)
        probabilities = np.array([0.5, 0.5], dtype=np.float64)
        table = np.ones(1, dtype=np.float64)
        accuracies = np.empty(0, dtype=np.float64)
        kernels.extension_scan(
            combined, bits, probabilities, table, 1, 0, accuracies, 0.9, 0.9
        )
        kernels.refine_partition(
            np.zeros(2, dtype=np.int64), bits, combined, 1
        )
        kernels.popcount(np.array([3], dtype=np.int64))
        matrix = np.ones((1, 2), dtype=np.float64)
        kernels.bsc_transform_rows(matrix, 1, 0.9)
        kernels.channel_transform_rows(matrix, np.array([0.9], dtype=np.float64))
    _WARMED.add(kernels.tier)


def default_tier() -> str:
    """The tier ``auto`` resolves to on this host (for stats and CLI output)."""
    return resolve_kernels("auto").tier


def _reset_for_tests() -> None:
    """Drop cached tiers, warmup marks and the one-time fallback flag."""
    global _fallback_logged
    _KERNEL_SETS.clear()
    _WARMED.clear()
    _fallback_logged = False
