"""Bayesian merging of crowd answers into the joint output distribution.

Section III-A of the paper: after receiving an answer set ``Ans`` for the
selected tasks, every output ``o`` is rescored as

``P(o | Ans) = P(o) · P(Ans | o) / P(Ans)``

with ``P(Ans | o) = Pc^#Same · (1 − Pc)^#Diff`` counted over the selected
facts only (Equation 3).  Under a heterogeneous channel model the likelihood
factorises per task instead: ``P(Ans | o) = Π_i (acc_i if Ans_i = o_i else
1 − acc_i)`` — the same channels the selection engine scores with, so what
selection expected is exactly what merging applies.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import bit_column, popcount_array, project_columns
from repro.exceptions import SelectionError


def answer_likelihood_array(
    distribution: JointDistribution, answers: AnswerSet, crowd: ChannelModel
) -> np.ndarray:
    """Likelihood ``P(Ans | o)`` per support row, aligned to ``support_arrays``.

    This is the primitive both :func:`merge_answers` and the persistent
    refinement sessions reweight with; the alignment contract is that row
    ``i`` of the result multiplies the mass of ``support_arrays()[0][i]``.
    """
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
