"""The modified CRH framework used to initialise CrowdFusion (Section V-A).

CRH (Li et al., SIGMOD 2014) alternates between *truth computation* (given
source weights, pick the value each source-weighted vote favours) and
*source-weight estimation* (weight a source by how often it agrees with the
current truths).  The original framework assumes a single true value per data
item; because the Book dataset has several correct formattings of the same
author list, the paper modifies it:

1. for each entity, mark the top-50 % most supported claims as (provisionally)
   correct by majority voting;
2. run the CRH weight / truth iterations against those provisional labels,
   allowing multiple true claims per data item.

The output confidence of a claim is the normalised weighted vote it receives,
which is what the fusion pipeline converts into CrowdFusion's prior.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Set, Tuple

from repro.fusion.claims import Claim, ClaimDatabase
from repro.fusion.pipeline import FusionResult
from repro.exceptions import FusionError


class ModifiedCRH:
    """Multi-truth CRH with top-50 % majority-vote bootstrapping.

    Parameters
    ----------
    max_iterations:
        Upper bound on weight/truth alternations.
    tolerance:
        Convergence threshold on the L1 change of source weights.
    top_fraction:
        Fraction of an entity's claims marked correct during bootstrapping
        (the paper uses 0.5).
    smoothing:
        Small constant keeping source error rates away from 0/1 so weights
        stay finite.
    """

    name = "modified_crh"

    def __init__(
        self,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        top_fraction: float = 0.5,
        smoothing: float = 0.05,
    ):
        if not 0.0 < top_fraction <= 1.0:
            raise FusionError(f"top_fraction must be in (0, 1], got {top_fraction}")
        if max_iterations <= 0:
            raise FusionError(f"max_iterations must be positive, got {max_iterations}")
        if not 0.0 < smoothing < 0.5:
            raise FusionError(f"smoothing must be in (0, 0.5), got {smoothing}")
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._top_fraction = top_fraction
        self._smoothing = smoothing

    # -- top-fraction labelling ---------------------------------------------------------

    def _top_claims(
        self, database: ClaimDatabase, key: Callable[[Claim], Tuple[float, str]]
    ) -> Set[str]:
        """Ids of the top-``top_fraction`` claims of each entity, ranked by ``key``.

        Both keys break ties on the claim id compared as a string (so
        ``"c10" < "c2"``); the priors depend on that order.
        """
        chosen: Set[str] = set()
        for entity in database.entities():
            claims = sorted(database.claims_for(entity), key=key)
            keep = max(1, math.ceil(len(claims) * self._top_fraction))
            chosen.update(claim.claim_id for claim in claims[:keep])
        return chosen

    # -- CRH iterations ------------------------------------------------------------------

    def run(self, database: ClaimDatabase) -> FusionResult:
        """Fuse the database and return per-claim confidences and source weights."""
        claims = database.claims()
        if not claims:
            raise FusionError("cannot fuse an empty claim database")
        sources = [source.source_id for source in database.sources()]

        # Bootstrap: the best-supported claims of each entity are provisionally true.
        current_truths = self._top_claims(
            database, lambda claim: (-claim.support, claim.claim_id)
        )
        weights: Dict[str, float] = {source_id: 1.0 for source_id in sources}
        iterations_run = 0

        for iteration in range(1, self._max_iterations + 1):
            iterations_run = iteration
            new_weights = self._estimate_weights(database, current_truths)
            confidences = self._weighted_confidences(database, new_weights)
            # Truth computation: the claims with the largest weighted vote are true.
            new_truths = self._top_claims(
                database, lambda claim: (-confidences[claim.claim_id], claim.claim_id)
            )

            drift = sum(
                abs(new_weights[source_id] - weights[source_id]) for source_id in sources
            )
            weights = new_weights
            if new_truths == current_truths and drift < self._tolerance:
                current_truths = new_truths
                break
            current_truths = new_truths

        confidences = self._weighted_confidences(database, weights)
        # Blend the hard truth decision into the confidence so that the
        # "declared true" claims sit above 0.5 and the rest below, while the
        # weighted vote still differentiates within each group.
        blended = {}
        for claim in claims:
            vote = confidences[claim.claim_id]
            if claim.claim_id in current_truths:
                blended[claim.claim_id] = 0.5 + 0.5 * vote
            else:
                blended[claim.claim_id] = 0.5 * vote
        return FusionResult(
            method=self.name,
            confidences=blended,
            source_weights=weights,
            iterations=iterations_run,
        )

    def _estimate_weights(
        self, database: ClaimDatabase, truths: Set[str]
    ) -> Dict[str, float]:
        """Weight each source by ``-log`` of its (smoothed, normalised) error rate."""
        errors: Dict[str, Tuple[int, int]] = {}
        for claim in database.claims():
            is_true = claim.claim_id in truths
            for source_id in claim.sources:
                wrong, total = errors.get(source_id, (0, 0))
                errors[source_id] = (wrong + (0 if is_true else 1), total + 1)

        rates: Dict[str, float] = {}
        for source in database.sources():
            wrong, total = errors.get(source.source_id, (0, 0))
            if total == 0:
                rates[source.source_id] = 0.5
            else:
                rates[source.source_id] = min(
                    1.0 - self._smoothing, max(self._smoothing, wrong / total)
                )
        max_rate = max(rates.values())
        weights = {
            source_id: max(1e-6, -math.log(rate / (max_rate + self._smoothing)))
            for source_id, rate in rates.items()
        }
        return weights

    def _weighted_confidences(
        self, database: ClaimDatabase, weights: Dict[str, float]
    ) -> Dict[str, float]:
        """Normalised weighted vote each claim receives within its data item.

        ``claim.sources`` is a frozenset, which iterates in string-hash order;
        ``math.fsum`` rounds exactly, so the votes do not depend on that
        order (or on ``PYTHONHASHSEED``).
        """
        claims = database.claims()
        votes = {
            claim.claim_id: math.fsum(
                weights.get(source_id, 0.0) for source_id in claim.sources
            )
            for claim in claims
        }
        totals: Dict[Tuple[str, str], float] = {}
        for claim in claims:
            totals[claim.data_item] = totals.get(claim.data_item, 0.0) + votes[claim.claim_id]
        confidences = {}
        for claim in claims:
            total = totals[claim.data_item]
            confidences[claim.claim_id] = votes[claim.claim_id] / total if total > 0 else 0.0
        return confidences
