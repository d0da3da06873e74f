"""TruthFinder (Yin, Han & Yu, TKDE 2008) — iterative trust propagation.

TruthFinder alternates between estimating source trustworthiness (the mean
confidence of the claims a source asserts) and claim confidence (one minus
the probability that *every* supporting source is wrong), with a dampening
factor to avoid overconfidence.  It was one of the first web truth-discovery
algorithms and serves as an alternative CrowdFusion initialiser and as a
comparison point in the fusion benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.fusion.claims import ClaimDatabase
from repro.fusion.pipeline import FusionResult
from repro.exceptions import FusionError


class TruthFinder:
    """Classic TruthFinder with dampening and implication-free claim scoring.

    Parameters
    ----------
    initial_trust:
        Starting trustworthiness of every source.
    dampening:
        The ``γ`` factor scaling trust scores before they are combined; keeps
        the fixed point away from 1.0.
    max_iterations, tolerance:
        Convergence controls on the change of source trust between iterations.
    """

    name = "truthfinder"

    def __init__(
        self,
        initial_trust: float = 0.8,
        dampening: float = 0.3,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
    ):
        if not 0.0 < initial_trust < 1.0:
            raise FusionError(f"initial_trust must be in (0, 1), got {initial_trust}")
        if not 0.0 < dampening <= 1.0:
            raise FusionError(f"dampening must be in (0, 1], got {dampening}")
        if max_iterations <= 0:
            raise FusionError(f"max_iterations must be positive, got {max_iterations}")
        self._initial_trust = initial_trust
        self._dampening = dampening
        self._max_iterations = max_iterations
        self._tolerance = tolerance

    def run(self, database: ClaimDatabase) -> FusionResult:
        """Iterate trust/confidence propagation to a fixed point."""
        claims = database.claims()
        if not claims:
            raise FusionError("cannot fuse an empty claim database")
        sources = [source.source_id for source in database.sources()]

        trust: Dict[str, float] = {source_id: self._initial_trust for source_id in sources}
        confidences: Dict[str, float] = {}
        iterations_run = 0

        for iteration in range(1, self._max_iterations + 1):
            iterations_run = iteration
            confidences = self._claim_confidences(database, trust)
            new_trust = self._source_trust(database, confidences)
            drift = sum(abs(new_trust[source_id] - trust[source_id]) for source_id in sources)
            trust = new_trust
            if drift < self._tolerance:
                break

        return FusionResult(
            method=self.name,
            confidences=confidences,
            source_weights=dict(trust),
            iterations=iterations_run,
        )

    def _claim_confidences(
        self, database: ClaimDatabase, trust: Dict[str, float]
    ) -> Dict[str, float]:
        """TruthFinder claim scoring.

        Each source contributes its trust score ``τ(s) = −ln(1 − t(s))``; the
        claim's raw score is the sum over its supporters and the final
        confidence applies the dampened sigmoid ``1 / (1 + e^(−γ·σ*))`` — the
        adjustment Yin et al. introduce to keep the iteration from collapsing
        or saturating.  The sum uses ``math.fsum``, whose exact rounding makes
        it independent of the hash order ``claim.sources`` iterates in.
        """
        confidences: Dict[str, float] = {}
        for claim in database.claims():
            raw_score = math.fsum(
                -math.log(1.0 - min(0.999999, trust.get(source_id, self._initial_trust)))
                for source_id in claim.sources
            )
            confidences[claim.claim_id] = 1.0 / (1.0 + math.exp(-self._dampening * raw_score))
        return confidences

    def _source_trust(
        self, database: ClaimDatabase, confidences: Dict[str, float]
    ) -> Dict[str, float]:
        """Trustworthiness = mean confidence of the source's claims."""
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for claim in database.claims():
            for source_id in claim.sources:
                totals[source_id] = totals.get(source_id, 0.0) + confidences[claim.claim_id]
                counts[source_id] = counts.get(source_id, 0) + 1
        trust = {}
        for source in database.sources():
            count = counts.get(source.source_id, 0)
            if count == 0:
                trust[source.source_id] = self._initial_trust
            else:
                # Clamp away from 0 and 1: a source that only asserts
                # unsupported claims would otherwise spiral to exactly zero
                # trust, which both breaks the log-space transform and claims
                # an unwarranted certainty about the source being useless.
                trust[source.source_id] = min(
                    0.999, max(0.01, totals[source.source_id] / count)
                )
        return trust
