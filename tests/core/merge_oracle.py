"""The 5.0 Bayesian merge, kept as a differential oracle.

Until 5.0, ``repro.core.merging.answer_likelihood_array`` computed the
likelihood ``P(Ans | o)`` of every support row on its own: a uniform channel
projected the support onto the answered facts (``project_columns``),
popcounted each row's disagreements with the answer mask
(``popcount_array``) and took ``Pc^#Same · (1 − Pc)^#Diff`` as two float
powers over the whole support; a heterogeneous channel multiplied one
``np.where`` factor per answered fact into a column of ones.  The reweight
refused NaN and negative weights in two passes and normalised into a fresh
array.

Since 5.1 the library gathers the same floats from a ``(k + 1)``-entry count
table or a 2-entry factor table per fact.  This module keeps the per-row code
verbatim so ``tests/core/test_merge_oracle.py`` and the ``merge/*`` scenarios
of ``benchmarks/bench_selection_hotpath.py`` can hold the library to it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.entropy import bit_column, popcount_array, project_columns
from repro.exceptions import SelectionError


def oracle_likelihood_array(distribution, answers, crowd) -> np.ndarray:
    """5.0's per-row ``P(Ans | o)``, aligned to ``distribution.support_arrays()``."""
    judgments = answers.judgments()
    if not judgments:
        raise SelectionError("cannot merge an empty answer set")
    masks, _ = distribution.support_arrays()

    uniform = crowd.uniform_accuracy
    if uniform is not None:
        positions = []
        answer_mask = 0
        for index, (fact_id, judgment) in enumerate(judgments.items()):
            positions.append(distribution.position(fact_id))
            if judgment:
                answer_mask |= 1 << index
        projected = project_columns(masks, tuple(positions))
        diff = popcount_array(projected ^ answer_mask)
        same = len(positions) - diff
        return (uniform ** same) * ((1.0 - uniform) ** diff)

    values = np.ones(masks.shape[0], dtype=np.float64)
    for fact_id, judgment in judgments.items():
        position = distribution.position(fact_id)
        accuracy = crowd.accuracy_for(fact_id)
        agrees = bit_column(masks, position).astype(bool)
        if not judgment:
            agrees = ~agrees
        values *= np.where(agrees, accuracy, 1.0 - accuracy)
    return values


def oracle_reweight(probabilities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """5.0's ``EntropyEngine.reweight`` arithmetic on a probability vector."""
    if np.isnan(weights).any() or (weights < 0.0).any():
        raise SelectionError("reweight weights must be non-negative numbers")
    masses = probabilities * weights
    total = masses.sum()
    if total <= 0.0:
        raise SelectionError("reweighting removed all probability mass")
    return masses / total


def oracle_merge(probabilities, distribution, answers, crowd) -> np.ndarray:
    """One 5.0 session merge: the posterior after folding ``answers`` into
    ``probabilities`` (aligned to ``distribution.support_arrays()``)."""
    return oracle_reweight(
        probabilities, oracle_likelihood_array(distribution, answers, crowd)
    )
