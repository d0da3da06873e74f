"""Bayesian source-accuracy fusion (ACCU-style, Dong et al. VLDB 2009).

Each source is modelled as answering correctly with some accuracy; claims
are scored by the posterior probability that they are the true value of
their data item, assuming a uniform prior over the distinct claimed values
plus an "unknown other value" pseudo-claim.  Source accuracies and claim
posteriors are refined by EM-style alternation.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.fusion.claims import ClaimDatabase
from repro.fusion.pipeline import FusionResult
from repro.exceptions import FusionError


class BayesianVote:
    """ACCU-style Bayesian fusion with iterated source-accuracy estimation.

    Parameters
    ----------
    initial_accuracy:
        Starting accuracy of every source.
    false_values:
        Assumed number of incorrect values a wrong source could have produced
        (the ``n`` of the ACCU model); spreads the error mass.
    max_iterations, tolerance:
        Convergence controls on the source-accuracy updates.
    """

    name = "bayesian_vote"

    def __init__(
        self,
        initial_accuracy: float = 0.7,
        false_values: int = 10,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
    ):
        if not 0.0 < initial_accuracy < 1.0:
            raise FusionError(
                f"initial_accuracy must be in (0, 1), got {initial_accuracy}"
            )
        if false_values <= 0:
            raise FusionError(f"false_values must be positive, got {false_values}")
        if max_iterations <= 0:
            raise FusionError(f"max_iterations must be positive, got {max_iterations}")
        self._initial_accuracy = initial_accuracy
        self._false_values = false_values
        self._max_iterations = max_iterations
        self._tolerance = tolerance

    def run(self, database: ClaimDatabase) -> FusionResult:
        """Alternate claim-posterior computation and source-accuracy estimation."""
        claims = database.claims()
        if not claims:
            raise FusionError("cannot fuse an empty claim database")
        sources = [source.source_id for source in database.sources()]

        accuracy: Dict[str, float] = {
            source_id: self._initial_accuracy for source_id in sources
        }
        posteriors: Dict[str, float] = {}
        iterations_run = 0

        for iteration in range(1, self._max_iterations + 1):
            iterations_run = iteration
            posteriors = self._claim_posteriors(database, accuracy)
            new_accuracy = self._source_accuracy(database, posteriors)
            drift = sum(
                abs(new_accuracy[source_id] - accuracy[source_id]) for source_id in sources
            )
            accuracy = new_accuracy
            if drift < self._tolerance:
                break

        return FusionResult(
            method=self.name,
            confidences=posteriors,
            source_weights=dict(accuracy),
            iterations=iterations_run,
        )

    def _vote_score(self, source_accuracy: float) -> float:
        """ACCU vote count of one source: ``ln(n·A / (1 − A))``."""
        clipped = min(0.99, max(0.01, source_accuracy))
        return math.log(self._false_values * clipped / (1.0 - clipped))

    def _claim_posteriors(
        self, database: ClaimDatabase, accuracy: Dict[str, float]
    ) -> Dict[str, float]:
        """Softmax of per-claim vote counts within each data item.

        Votes are summed with ``math.fsum``: exact rounding makes them
        independent of the hash order ``claim.sources`` iterates in.
        """
        claims = database.claims()
        votes = {
            claim.claim_id: math.fsum(
                self._vote_score(accuracy.get(source_id, self._initial_accuracy))
                for source_id in claim.sources
            )
            for claim in claims
        }
        grouped: Dict[Tuple[str, str], list] = {}
        for claim in claims:
            grouped.setdefault(claim.data_item, []).append(claim.claim_id)

        posteriors: Dict[str, float] = {}
        for _item, claim_ids in grouped.items():
            # Include a pseudo-claim with zero votes representing "some other
            # value none of the sources mentioned", so even a unanimously
            # supported claim keeps probability < 1.
            scores = [votes[claim_id] for claim_id in claim_ids] + [0.0]
            peak = max(scores)
            exponentials = [math.exp(score - peak) for score in scores]
            normaliser = sum(exponentials)
            for claim_id, value in zip(claim_ids, exponentials[:-1]):
                posteriors[claim_id] = value / normaliser
        return posteriors

    def _source_accuracy(
        self, database: ClaimDatabase, posteriors: Dict[str, float]
    ) -> Dict[str, float]:
        """Source accuracy = mean posterior of the claims it asserts."""
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for claim in database.claims():
            for source_id in claim.sources:
                totals[source_id] = totals.get(source_id, 0.0) + posteriors[claim.claim_id]
                counts[source_id] = counts.get(source_id, 0) + 1
        accuracy = {}
        for source in database.sources():
            count = counts.get(source.source_id, 0)
            if count == 0:
                accuracy[source.source_id] = self._initial_accuracy
            else:
                accuracy[source.source_id] = min(
                    0.99, max(0.01, totals[source.source_id] / count)
                )
        return accuracy
