"""Chaos suite: the refinement service under injected failures.

Service-level self-healing: a merge that crashes fails *alone* — the merges
before and behind it apply — and a client resending the failed work
converges on the posterior an undisturbed run produces.
"""

import asyncio

import pytest

from repro.core.crowd import CrowdModel
from repro.service import RefinementService
from repro.service.api import ServiceError
from repro.testing import faults
from repro.testing.faults import FaultPlan

from tests.core.selection.test_persistent_pool import dense_distribution

pytestmark = pytest.mark.chaos


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


def _answer_waves(fact_ids):
    """Three disjoint two-answer waves over the session's facts."""
    return [
        {fact_ids[0]: True, fact_ids[1]: False},
        {fact_ids[2]: True, fact_ids[3]: True},
        {fact_ids[4]: False, fact_ids[5]: True},
    ]


async def _posterior_reference(prior, waves):
    """The undisturbed trajectory: the same waves, no faults."""
    async with RefinementService() as service:
        created = await service.create_session(prior, CrowdModel(0.8), budget=16)
        for wave in waves:
            await service.post_answers(created.session_id, wave)
        return await service.get_posterior(created.session_id)


def test_merge_fault_mid_batch_fails_alone_and_retry_converges():
    prior = dense_distribution(8, 96, seed=90)
    waves = _answer_waves(prior.fact_ids)

    async def scenario():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            # All three waves land in the queue before the drainer wakes;
            # each is its own job, and the second one's merge raises.
            with faults.injected(FaultPlan(fail_merge_at=2)):
                results = await asyncio.gather(
                    *(
                        service.post_answers(created.session_id, wave)
                        for wave in waves
                    ),
                    return_exceptions=True,
                )

            # Wave 1 merged before the fault: it stands.
            assert not isinstance(results[0], Exception)
            assert results[0].rounds_merged == 1
            # Wave 2 crashed mid-merge: its state is indeterminate, so the
            # error is NOT retry-safe (its charge stands too).
            assert isinstance(results[1], ServiceError)
            assert type(results[1]) is ServiceError
            assert not results[1].retry_safe
            assert "merge failed" in str(results[1])
            # Wave 3 queued behind the failure and merged normally.
            assert not isinstance(results[2], Exception)
            assert results[2].rounds_merged == 2

            metrics = service.metrics()
            assert metrics["merges"]["count"] == 2
            assert metrics["errors"] == 1

            # The injected fault never applied wave 2, and Bayesian merges
            # commute, so resending it converges on the undisturbed posterior.
            report = await service.post_answers(created.session_id, waves[1])
            assert report.rounds_merged == 3
            view = await service.get_posterior(created.session_id)
            closed = await service.close_session(created.session_id)
            return view, closed

    view, closed = run(scenario())
    reference = run(_posterior_reference(prior, waves))

    assert view.fact_ids == reference.fact_ids
    assert len(view.support) == len(reference.support)
    for (mask, prob), (ref_mask, ref_prob) in zip(view.support, reference.support):
        assert mask == ref_mask
        assert abs(prob - ref_prob) < 1e-9
    for fact_id, marginal in reference.marginals.items():
        assert abs(view.marginals[fact_id] - marginal) < 1e-9
    assert abs(view.utility - reference.utility) < 1e-9
    # Wave 2 was charged twice: once lost to the fault, once on the retry.
    assert closed.budget_spent == sum(len(w) for w in waves) + len(waves[1])
