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
answers, so each row gathers its value from a ``(k + 1)``-entry table.  The
columns are read in row ranges, so a refinement session can multiply a
round into its posterior block by block, in place.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

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
    likelihoods = _ColumnLikelihoods(
        answers, crowd, lambda fact_id: bit_column(masks, distribution.position(fact_id))
    )
    rows = masks.shape[0]
    return likelihoods.fill(0, rows, np.empty(rows), np.empty(rows, dtype=np.intp))


@functools.lru_cache(maxsize=256)
def _uniform_table(accuracy: float, k: int) -> Tuple[np.ndarray, float, np.dtype]:
    """``(table, smallest entry, count type)`` of ``k`` answers at ``accuracy``.

    ``table[d]`` is ``Pc^(k−d) · (1 − Pc)^d``, the likelihood of a row that
    disagrees with ``d`` answers, taken as NumPy's array power over int64
    exponents, as the per-row formula took it: Python's scalar ``**``
    (libm's pow) may differ in the last bit (it does at Pc = 0.8).  Cached
    (read-only) because every round of a session asks for the same table,
    and on a paper-size book building it costs about a third of the merge.
    """
    diff = np.arange(k + 1)
    table = (accuracy ** (k - diff)) * ((1.0 - accuracy) ** diff)
    table.setflags(write=False)
    # The narrowest signed type that holds k (its negative range holds -k - 1).
    return table, min(table.tolist()), np.min_scalar_type(-k - 1)


class _ColumnLikelihoods:
    """``P(Ans | o)`` per support row from the answered facts' 0/1 columns.

    ``column_of(fact_id)`` returns the fact's ``int8`` 0/1 column over the
    support (``bit_column`` of the masks, or a session engine's cached
    ``EntropyEngine.bits``) and raises ``InvalidFactError`` for an unknown
    fact.  Every column is fetched here, before any row is computed, so a
    caller that writes as it goes (a session merge reweighting in place)
    has raised before its first write.  The columns are only read.

    A uniform channel's likelihood depends only on how many of the ``k``
    answers disagree with the row, so each row's disagreement count indexes
    a ``(k + 1)``-entry table.  The table is the same NumPy array power the
    per-row formula ``Pc^#Same · (1 − Pc)^#Diff`` takes, so every entry is
    bit-identical to it.  A heterogeneous channel multiplies one gathered
    ``(1 − acc, acc)`` factor per answer, in answer order.  Either way a
    row's float does not depend on which row range :meth:`fill` computes it
    in, and :attr:`smallest` bounds every row's likelihood from below
    (rounding is monotonic).
    """

    __slots__ = ("_columns", "_trues", "_count_type", "_table", "_pairs", "smallest")

    def __init__(
        self,
        answers: AnswerSet,
        crowd: ChannelModel,
        column_of: Callable[[str], np.ndarray],
    ):
        judgments = answers.judgments()
        if not judgments:
            raise SelectionError("cannot merge an empty answer set")
        self._columns = [
            (column_of(fact_id), judgment) for fact_id, judgment in judgments.items()
        ]
        uniform = crowd.uniform_accuracy
        if uniform is not None:
            # Every row starts at the number of "true" answers, loses one per
            # true-answered fact it holds and gains one per false-answered
            # fact it holds: its disagreement count, which never leaves [0, k].
            self._trues = sum(judgments.values())
            self._table, self.smallest, self._count_type = _uniform_table(
                uniform, len(judgments)
            )
            return
        self._trues = None
        # pairs[i][bit]: the probability of answer i given the row's truth bit.
        self._pairs = []
        smallest = 1.0
        for fact_id, judgment in judgments.items():
            accuracy = crowd.accuracy_for(fact_id)
            pair = (1.0 - accuracy, accuracy) if judgment else (accuracy, 1.0 - accuracy)
            self._pairs.append(np.array(pair, dtype=np.float64))
            smallest *= min(pair)
        self.smallest = smallest

    def fill(
        self, start: int, stop: int, out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """The likelihoods of rows ``[start, stop)``, written into ``out``.

        ``out`` (``float64``) and ``scratch`` (``intp``) are ``stop - start``
        entries long; the result is ``out``.  A uniform round allocates
        nothing else: its counts are summed in the narrowest signed type, in
        ``out``'s bytes (the gather overwrites them last), and widened into
        ``scratch``, since ``take`` copies any index type but ``intp``.  A
        heterogeneous round lets ``take`` make that copy, and gathers every
        answer after the first into a fresh array: block-sized temporaries,
        which on a paper-size book cost less than writing into buffers.
        """
        if self._trues is None:
            for index, ((column, _judgment), pair) in enumerate(
                zip(self._columns, self._pairs)
            ):
                bits = column[start:stop]
                if index == 0:
                    pair.take(bits, out=out, mode="clip")
                else:
                    out *= pair.take(bits)
            return out
        counts = out.view(self._count_type)[: stop - start]
        for index, (column, judgment) in enumerate(self._columns):
            bits = column[start:stop]
            if index == 0:
                (np.subtract if judgment else np.add)(
                    self._trues, bits, dtype=self._count_type, out=counts
                )
            elif judgment:
                counts -= bits
            else:
                counts += bits
        np.copyto(scratch, counts)
        # "clip" writes into ``out`` as it is; the counts are in range.
        return self._table.take(scratch, out=out, mode="clip")


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
