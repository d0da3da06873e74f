"""Per-request deadline semantics on the refinement service.

``deadline_ms`` is enforced only at *retry-safe* points: a job whose budget
lapses while queued fails before anything was validated or charged, and a
read-only scan that hopped to the executor and is abandoned mid-computation
discards its result without touching any cache.  A small session's job runs
inline on the event loop, so its deadline is checked only before it starts;
the tests that stall a scan mid-computation force the hop by patching
``_INLINE_WORK`` to 0.  Merges that have started are never aborted.  Every
deadline failure is a typed :class:`DeadlineExceededError` whose
``retry_safe`` flag survives the wire codecs, and every hit lands in the
``recovery.deadline_hits`` metric.
"""

import asyncio
import time

import pytest

from repro.core.crowd import CrowdModel
from repro.core.selection import RefinementSession
from repro.core.selection.engine import EntropyEngine
from repro.service import DeadlineExceededError, RefinementService, server
from repro.service.api import (
    ServiceError,
    ValidationFailedError,
    error_payload,
    raise_from_payload,
)
from repro.testing import faults
from repro.testing.faults import FaultPlan

from tests.core.selection.test_persistent_pool import dense_distribution


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


async def _with_service(scenario):
    async with RefinementService() as service:
        return await scenario(service)


def test_deadline_ms_must_be_positive():
    async def scenario(service):
        prior = dense_distribution(5, 24, seed=40)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)
        with pytest.raises(ValidationFailedError, match="deadline_ms"):
            await service.select_next(created.session_id, deadline_ms=0)
        with pytest.raises(ValidationFailedError, match="deadline_ms"):
            await service.post_answers(
                created.session_id, {prior.fact_ids[0]: True}, deadline_ms=-5
            )

    run(_with_service(scenario))


def test_select_deadline_expires_mid_computation_without_writing_the_cache(
    monkeypatch,
):
    monkeypatch.setattr(server, "_INLINE_WORK", 0)

    async def scenario(service):
        prior = dense_distribution(6, 48, seed=41)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)

        with faults.injected(FaultPlan(delay_select_seconds=0.5)):
            with pytest.raises(DeadlineExceededError) as excinfo:
                await service.select_next(created.session_id, deadline_ms=50)
        assert excinfo.value.retry_safe
        assert "safe to retry" in str(excinfo.value)
        assert service.metrics()["recovery"]["deadline_hits"] == 1

        # The abandoned scan's result was discarded: the retried select is a
        # fresh computation (not served from a cache the timeout poisoned),
        # and only *it* populates the cache.
        reply = await service.select_next(created.session_id, deadline_ms=5_000)
        assert not reply.cached
        assert reply.task_ids
        again = await service.select_next(created.session_id)
        assert again.cached and again.task_ids == reply.task_ids

    run(_with_service(scenario))


def test_a_merge_waits_for_a_scan_abandoned_at_its_deadline(monkeypatch):
    """A merge writes the posterior in place, so no abandoned scan may read it."""
    monkeypatch.setattr(server, "_INLINE_WORK", 0)
    scanning = []
    scans_seen_by_merges = []
    stalls = [0.4]
    scan, merge = EntropyEngine.scan, RefinementSession.merge

    def stalled_scan(engine, state, fact_ids):
        scanning.append(engine)
        try:
            if stalls:
                time.sleep(stalls.pop())
            return scan(engine, state, fact_ids)
        finally:
            scanning.remove(engine)

    def spied_merge(session, answers):
        scans_seen_by_merges.append(len(scanning))
        return merge(session, answers)

    monkeypatch.setattr(EntropyEngine, "scan", stalled_scan)
    monkeypatch.setattr(RefinementSession, "merge", spied_merge)

    async def scenario(service):
        prior = dense_distribution(6, 48, seed=45)
        crowd = CrowdModel(0.8)
        timed = (await service.create_session(prior, crowd, budget=12)).session_id
        twin = (await service.create_session(prior, crowd, budget=12)).session_id
        with pytest.raises(DeadlineExceededError):
            await service.select_next(timed, deadline_ms=50)
        assert scanning  # the abandoned scan is still running
        answers = {prior.fact_ids[0]: True, prior.fact_ids[2]: False}
        for session_id in (timed, twin):
            await service.post_answers(session_id, answers)
        assert scans_seen_by_merges == [0, 0]

        # The session whose scan timed out refines exactly as its twin.
        selected = [await service.select_next(s) for s in (timed, twin)]
        assert selected[0].task_ids == selected[1].task_ids
        assert selected[0].objective.hex() == selected[1].objective.hex()
        posteriors = [await service.get_posterior(s) for s in (timed, twin)]
        assert posteriors[0].support == posteriors[1].support

    run(_with_service(scenario))


def test_queued_jobs_expire_retry_safe_before_any_charge(monkeypatch):
    monkeypatch.setattr(server, "_INLINE_WORK", 0)

    async def scenario(service):
        prior = dense_distribution(6, 48, seed=42)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)
        answers = {prior.fact_ids[0]: True, prior.fact_ids[1]: False}

        # Stall the drainer on a deadline-less select, then queue a merge and
        # a posterior read whose deadlines lapse while they wait behind it.
        with faults.injected(FaultPlan(delay_select_seconds=0.6)):
            stalled = asyncio.ensure_future(
                service.select_next(created.session_id)
            )
            await asyncio.sleep(0.05)  # let the drainer enter the stalled scan
            merge = asyncio.ensure_future(
                service.post_answers(
                    created.session_id, answers, deadline_ms=100
                )
            )
            posterior = asyncio.ensure_future(
                service.get_posterior(created.session_id, deadline_ms=100)
            )
            results = await asyncio.gather(
                stalled, merge, posterior, return_exceptions=True
            )

        assert not isinstance(results[0], Exception)
        for expired in results[1:]:
            assert isinstance(expired, DeadlineExceededError)
            assert expired.retry_safe
            assert "queued" in str(expired)
        assert service.metrics()["recovery"]["deadline_hits"] == 2

        # Nothing was charged or merged: the full budget is still there and
        # the resent answers merge cleanly.
        report = await service.post_answers(created.session_id, answers)
        assert report.rounds_merged == 1
        closed = await service.close_session(created.session_id)
        assert closed.budget_spent == len(answers)

    run(_with_service(scenario))


def test_an_inline_job_checks_its_deadline_only_before_it_starts():
    async def scenario(service):
        prior = dense_distribution(6, 48, seed=44)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)

        # The scan outlives its deadline, but it runs on the event loop, so
        # nothing can interrupt it: the select answers normally and fills
        # the cache.
        with faults.injected(FaultPlan(delay_select_seconds=0.3)):
            reply = await service.select_next(created.session_id, deadline_ms=50)
        assert reply.task_ids and not reply.cached
        assert service.metrics()["recovery"]["deadline_hits"] == 0
        again = await service.select_next(created.session_id)
        assert again.cached and again.task_ids == reply.task_ids

    run(_with_service(scenario))


def test_unbounded_requests_never_hit_the_deadline_machinery():
    async def scenario(service):
        prior = dense_distribution(5, 24, seed=43)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)
        reply = await service.select_next(created.session_id)
        await service.post_answers(
            created.session_id, {t: True for t in reply.task_ids}
        )
        await service.get_posterior(created.session_id)
        assert service.metrics()["recovery"]["deadline_hits"] == 0

    run(_with_service(scenario))


def test_retry_safe_flag_crosses_the_wire_codecs():
    deadline = error_payload(DeadlineExceededError("too slow"))
    assert deadline["code"] == "deadline_exceeded"
    assert deadline["retry_safe"] is True
    with pytest.raises(DeadlineExceededError) as excinfo:
        raise_from_payload(deadline)
    assert excinfo.value.retry_safe

    generic = error_payload(ServiceError("boom"))
    assert generic["retry_safe"] is False
    with pytest.raises(ServiceError) as excinfo:
        raise_from_payload(generic)
    assert not excinfo.value.retry_safe
