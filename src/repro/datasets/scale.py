"""Scale corpora: sparse joint supports far past the paper's experiment sizes.

The paper's Table V measures selection time on book-sized problems (tens of
facts, supports in the hundreds).  The vectorized engine is ``O(|O|)`` per
candidate, so the interesting scale axis is the *support*: this module
generates sparse joint distributions with supports of ``2^20`` rows and
beyond, over wide fact sets (hundreds of candidate facts), for the selection
benchmarks in ``benchmarks/bench_selection_hotpath.py`` and the slow tier of
the test suite.

Up to 63 facts the support masks pack into an ``int64`` column; wider fact
sets are generated directly as packed ``(rows, ceil(n/64))`` uint64 bit
planes (:mod:`repro.core.bitplanes`), which
:meth:`~repro.core.distribution.JointDistribution.from_support_arrays`
adopts as the distribution's support arrays, so hundreds-of-facts corpora
stay on vectorized numeric arrays end to end — both during generation and on
the selection hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distribution import JointDistribution
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class ScaleCorpusConfig:
    """Shape of one generated scale distribution.

    Attributes
    ----------
    num_facts:
        Width of the fact set (every fact is a selection candidate).
    support_size:
        Number of distinct support rows (``|O|``); must not exceed
        ``2^num_facts``.
    seed:
        RNG seed; generation is fully deterministic.
    """

    num_facts: int = 48
    support_size: int = 1 << 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_facts < 1:
            raise DatasetError(f"num_facts must be positive, got {self.num_facts}")
        if self.support_size < 1:
            raise DatasetError(
                f"support_size must be positive, got {self.support_size}"
            )
        if self.num_facts <= 62 and self.support_size > (1 << self.num_facts):
            raise DatasetError(
                f"cannot draw {self.support_size} distinct rows from a "
                f"2^{self.num_facts} assignment space"
            )


def generate_scale_distribution(
    config: ScaleCorpusConfig = ScaleCorpusConfig(),
) -> JointDistribution:
    """Generate a sparse joint distribution of the configured scale.

    Support rows are distinct uniform draws from the assignment space with
    masses from ``U(0.05, 1.0)`` (normalised by the distribution), matching
    the shape of the existing selection benchmarks' corpora.  The result is
    built through the trusted-array constructor, so generation stays linear
    in the support even at ``2^20`` rows.
    """
    rng = np.random.default_rng(config.seed)
    masses = rng.uniform(0.05, 1.0, size=config.support_size)
    if config.num_facts <= 62:
        space = 1 << config.num_facts
        if config.support_size * 2 >= space:
            # Dense regime (support at least half the space): uniform draws
            # would coupon-collect the tail for ages, but the space itself is
            # at most twice the support and therefore materialisable — sample
            # without replacement directly.
            masks = np.sort(
                rng.choice(space, size=config.support_size, replace=False)
            ).astype(np.int64)
        else:
            # Sparse regime: draw full support-sized batches and de-duplicate;
            # each round fills at least half the remaining gap in expectation,
            # so the loop is logarithmic in the support size.
            masks = np.unique(
                rng.integers(0, space, size=config.support_size, dtype=np.int64)
            )
            while masks.size < config.support_size:
                extra = rng.integers(
                    0, space, size=config.support_size, dtype=np.int64
                )
                masks = np.unique(np.concatenate([masks, extra]))
            # np.unique sorted the pool, so trimming the overshoot must pick
            # uniformly — a sorted-prefix cut would drop the whole top of the
            # assignment space and flatten the high-order fact columns.
            masks = rng.permutation(masks)[: config.support_size]
    else:
        # Wide fact sets: draw packed uint64 bit planes directly (one row of
        # words per assignment) and de-duplicate row-wise like the sparse
        # regime.
        masks = _unique_planes(rng, config)
    fact_ids = tuple(f"f{i}" for i in range(config.num_facts))
    return JointDistribution.from_support_arrays(fact_ids, masks, masses)


def _unique_planes(rng: np.random.Generator, config: ScaleCorpusConfig) -> np.ndarray:
    """``support_size`` distinct packed rows over ``num_facts`` bits.

    Batched draw-and-unique like the sparse ``int64`` regime; collisions are
    vanishingly unlikely past 64 bits, so the loop essentially never runs a
    second round.  The overshoot is trimmed by permutation for the same
    reason as the narrow path (``np.unique`` sorts its pool).
    """
    words = (config.num_facts + 63) >> 6
    top_bits = config.num_facts - ((words - 1) << 6)
    top_mask = np.uint64((1 << top_bits) - 1) if top_bits < 64 else np.uint64(_WORD_MAX)

    def draw() -> np.ndarray:
        batch = rng.integers(
            0, 1 << 64, size=(config.support_size, words), dtype=np.uint64
        )
        batch[:, -1] &= top_mask
        return batch

    planes = np.unique(draw(), axis=0)
    while planes.shape[0] < config.support_size:
        planes = np.unique(np.concatenate([planes, draw()]), axis=0)
    return rng.permutation(planes, axis=0)[: config.support_size]


#: All 64 bits set — the top-word mask when ``num_facts`` is a word multiple.
_WORD_MAX = (1 << 64) - 1
