"""Bayesian merging of crowd answers into the joint output distribution.

Section III-A of the paper: after receiving an answer set ``Ans`` for the
selected tasks, every output ``o`` is rescored as

``P(o | Ans) = P(o) · P(Ans | o) / P(Ans)``

with ``P(Ans | o) = Pc^#Same · (1 − Pc)^#Diff`` counted over the selected
facts only (Equation 3).  Under a heterogeneous channel model the likelihood
factorises per task instead: ``P(Ans | o) = Π_i (acc_i if Ans_i = o_i else
1 − acc_i)`` — the same channels the selection engine scores with, so what
selection expected is exactly what merging applies.

Both are computed from the answered facts' 0/1 support columns.  A uniform
round has only ``k + 1`` distinct likelihoods, one per count of disagreeing
answers, so each row gathers its value from a ``(k + 1)``-entry table.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import bit_column
from repro.exceptions import SelectionError


def answer_likelihood_array(
    distribution: JointDistribution, answers: AnswerSet, crowd: ChannelModel
) -> np.ndarray:
    """Likelihood ``P(Ans | o)`` per support row, aligned to ``support_arrays``.

    This is the primitive both :func:`merge_answers` and the persistent
    refinement sessions reweight with; the alignment contract is that row
    ``i`` of the result multiplies the mass of ``support_arrays()[0][i]``.
    """
    masks, _ = distribution.support_arrays()
    return _column_likelihoods(
        answers, crowd, lambda fact_id: bit_column(masks, distribution.position(fact_id))
    )


def _column_likelihoods(
    answers: AnswerSet,
    crowd: ChannelModel,
    column_of: Callable[[str], np.ndarray],
) -> np.ndarray:
    """``P(Ans | o)`` per support row from the answered facts' 0/1 columns.

    ``column_of(fact_id)`` returns the fact's ``int8`` 0/1 column over the
    support (``bit_column`` of the masks, or a session engine's cached
    ``EntropyEngine.bits``) and raises ``InvalidFactError`` for an unknown
    fact.  The columns are only read: every array written here is fresh.

    A uniform channel's likelihood depends only on how many of the ``k``
    answers disagree with the row, so each row's disagreement count indexes
    a ``(k + 1)``-entry table.  The table is the same NumPy array power the
    per-row formula ``Pc^#Same · (1 − Pc)^#Diff`` takes, so every entry is
    bit-identical to it.  A heterogeneous channel multiplies one gathered
    ``(1 − acc, acc)`` factor per answer, in answer order.
    """
    judgments = answers.judgments()
    if not judgments:
        raise SelectionError("cannot merge an empty answer set")

    uniform = crowd.uniform_accuracy
    if uniform is not None:
        k = len(judgments)
        # Every row starts at the number of "true" answers, loses one per
        # true-answered fact it holds and gains one per false-answered fact
        # it holds: its disagreement count, which never leaves [0, k].
        trues = sum(judgments.values())
        dtype = np.min_scalar_type(k)
        counts = None
        for fact_id, judgment in judgments.items():
            bits = column_of(fact_id).view(np.uint8)
            if counts is None:
                counts = (np.subtract if judgment else np.add)(trues, bits, dtype=dtype)
            elif judgment:
                counts -= bits
            else:
                counts += bits
        # NumPy's array power over int64 exponents, as the per-row formula
        # took it: Python's scalar ``**`` (libm's pow) may differ in the last
        # bit (it does at Pc = 0.8).
        diff = np.arange(k + 1)
        table = (uniform ** (k - diff)) * ((1.0 - uniform) ** diff)
        return table.take(counts)

    values = None
    for fact_id, judgment in judgments.items():
        bits = column_of(fact_id).view(np.uint8)
        accuracy = crowd.accuracy_for(fact_id)
        # factors[bit]: the probability of this answer given the row's truth bit.
        pair = (1.0 - accuracy, accuracy) if judgment else (accuracy, 1.0 - accuracy)
        factors = np.array(pair, dtype=np.float64).take(bits)
        if values is None:
            values = factors
        else:
            values *= factors
    return values


def answer_likelihoods(
    distribution: JointDistribution, answers: AnswerSet, crowd: ChannelModel
) -> Dict[int, float]:
    """Per-output likelihood ``P(Ans | o)`` for every output in the support.

    The returned mapping is keyed by assignment bitmask and can be fed to
    :meth:`JointDistribution.reweight`.
    """
    values = answer_likelihood_array(distribution, answers, crowd)
    return dict(zip(distribution.support(), values.tolist()))


def answer_probability(
    distribution: JointDistribution, answers: AnswerSet, crowd: ChannelModel
) -> float:
    """Marginal probability ``P(Ans)`` of receiving this exact answer set (Equation 2)."""
    likelihoods = answer_likelihoods(distribution, answers, crowd)
    return sum(
        probability * likelihoods[mask] for mask, probability in distribution.items()
    )


def merge_answers(
    distribution: JointDistribution, answers: AnswerSet, crowd: ChannelModel
) -> JointDistribution:
    """Posterior joint distribution after observing ``answers`` (Equation 3).

    The update multiplies every output's probability by its answer likelihood
    and renormalises; outputs that conflict with the crowd lose mass, outputs
    that agree gain mass — exactly the running-example update in Section III-A.
    """
    return distribution.reweight_array(
        answer_likelihood_array(distribution, answers, crowd)
    )


def merge_answer_sequence(
    distribution: JointDistribution,
    answer_sets: "list[AnswerSet]",
    crowd: ChannelModel,
) -> JointDistribution:
    """Fold a sequence of answer sets into the distribution, one Bayes step each.

    Because worker errors are independent across tasks and across rounds, the
    sequential update equals the joint update; this helper mirrors how the
    multi-round engine applies one round's answers at a time.
    """
    current = distribution
    for answers in answer_sets:
        current = merge_answers(current, answers, crowd)
    return current
