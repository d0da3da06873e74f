"""In-process suite for the multi-tenant refinement service.

Runs :class:`RefinementService` directly (no sockets, serial runtime) and
pins the whole request contract: typed responses, budget accounting,
generation-keyed caching, fail-fast backpressure, typed errors, the metrics
payload — and the headline property that any interleaving of async tenants
yields per-session trajectories identical to serial replay through a fresh
:class:`RefinementSession`.
"""

import asyncio
import threading

import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import RefinementSession, get_selector
from repro.service import RefinementService, server
from repro.service.api import (
    BudgetExhaustedError,
    ServiceError,
    SessionOverloadedError,
    UnknownSessionError,
    ValidationFailedError,
)

from tests.core.selection.test_persistent_pool import (
    dense_distribution,
    scripted_answers,
)


def run(coroutine):
    return asyncio.run(coroutine)


def make_prior(seed=0):
    return dense_distribution(5, 24, seed=seed)


class TestRoundTrip:
    def test_create_select_post_posterior_close(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                assert created.num_facts == 5 and created.budget == 6
                assert service.sessions_live == 1

                reply = await service.select_next(created.session_id, batch=2)
                assert len(reply.task_ids) == 2 and not reply.cached
                assert reply.budget_remaining == 6

                report = await service.post_answers(
                    created.session_id, {t: True for t in reply.task_ids}
                )
                assert report.rounds_merged == 1
                assert report.answers_merged == 2
                assert report.budget_remaining == 4

                view = await service.get_posterior(created.session_id)
                assert set(view.marginals) == set(view.fact_ids)
                assert abs(sum(p for _, p in view.support) - 1.0) < 1e-9
                assert view.distribution().fact_ids == view.fact_ids

                closed = await service.close_session(created.session_id)
                assert closed.rounds_merged == 1 and closed.budget_spent == 2
                assert service.sessions_live == 0

        run(scenario())

    def test_answers_accept_answer_sets_and_mappings(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                fact = created.session_id and make_prior().fact_ids[0]
                by_mapping = await service.post_answers(created.session_id, {fact: True})
                by_set = await service.post_answers(
                    created.session_id, AnswerSet.from_mapping({fact: False})
                )
                assert by_mapping.rounds_merged == 1 and by_set.rounds_merged == 2

        run(scenario())


class TestBudget:
    def test_posting_over_the_remaining_budget_rejects_the_whole_batch(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=1
                )
                fact_ids = make_prior().fact_ids
                with pytest.raises(BudgetExhaustedError):
                    await service.post_answers(
                        created.session_id, {f: True for f in fact_ids[:2]}
                    )
                # The rejected batch must not have merged or charged anything.
                view = await service.get_posterior(created.session_id)
                assert view.rounds_merged == 0

        run(scenario())

    def test_selection_clamps_to_remaining_then_exhausts(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=3
                )
                first = await service.select_next(created.session_id, batch=5)
                assert len(first.task_ids) == 3  # clamped to the budget
                await service.post_answers(
                    created.session_id, {t: True for t in first.task_ids}
                )
                with pytest.raises(BudgetExhaustedError):
                    await service.select_next(created.session_id, batch=1)

        run(scenario())


class TestCaching:
    def test_selection_is_cached_until_a_merge_invalidates(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=10
                )
                first = await service.select_next(created.session_id, batch=2)
                second = await service.select_next(created.session_id, batch=2)
                assert not first.cached and second.cached
                assert second.task_ids == first.task_ids

                await service.post_answers(
                    created.session_id, {t: True for t in first.task_ids}
                )
                third = await service.select_next(created.session_id, batch=2)
                assert not third.cached

                metrics = service.metrics()
                assert metrics["selections"]["count"] == 3
                assert metrics["selections"]["cache_hits"] == 1

        run(scenario())

    def test_posterior_cache_counts_hits(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=10
                )
                first = await service.get_posterior(created.session_id)
                second = await service.get_posterior(created.session_id)
                assert second is first  # same generation, cached object
                assert service.metrics()["posterior_cache_hits"] == 1

        run(scenario())


class TestErrors:
    def test_unknown_session_raises_404(self):
        async def scenario():
            async with RefinementService() as service:
                with pytest.raises(UnknownSessionError) as excinfo:
                    await service.select_next("s-999999")
                assert excinfo.value.status == 404

        run(scenario())

    def test_unknown_fact_ids_fail_validation(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                with pytest.raises(ValidationFailedError, match="no facts"):
                    await service.post_answers(created.session_id, {"ghost": True})

        run(scenario())

    def test_empty_answers_invalid_batch_and_bad_selector(self):
        async def scenario():
            async with RefinementService() as service:
                with pytest.raises(ValidationFailedError, match="selector"):
                    await service.create_session(
                        make_prior(), CrowdModel(0.8), budget=6, selector="psychic"
                    )
                with pytest.raises(ValidationFailedError, match="budget"):
                    await service.create_session(
                        make_prior(), CrowdModel(0.8), budget=0
                    )
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                with pytest.raises(ValidationFailedError, match="batch"):
                    await service.select_next(created.session_id, batch=0)
                with pytest.raises(ValidationFailedError):
                    await service.post_answers(created.session_id, {})

        run(scenario())

    def test_shutdown_service_refuses_requests(self):
        async def scenario():
            service = RefinementService()
            await service.shutdown()
            with pytest.raises(ServiceError):
                await service.create_session(make_prior(), CrowdModel(0.8), budget=6)

        run(scenario())


class TestFaultIsolation:
    """Runtime failures must fail one request, never a session's drainer."""

    def test_selector_crash_becomes_service_error_and_drain_survives(self):
        class ExplodingSelector:
            name = "exploding"

            def select_with_session(self, session, k):
                raise RuntimeError("pool worker crashed")

        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                record = service._registry.get(created.session_id)
                real_selector = record.selector
                record.selector = ExplodingSelector()
                # A non-ServiceError from the core runtime surfaces as a
                # typed ServiceError on this request's future...
                with pytest.raises(ServiceError, match="select failed"):
                    await service.select_next(created.session_id, batch=2)
                # ...and the drain task survives: the session keeps serving.
                record.selector = real_selector
                reply = await service.select_next(created.session_id, batch=2)
                assert len(reply.task_ids) == 2
                report = await service.post_answers(
                    created.session_id, {t: True for t in reply.task_ids}
                )
                assert report.rounds_merged == 1

        run(scenario())

    def test_a_failed_merge_fails_alone_and_the_next_merge_applies(self):
        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=10
                )
                record = service._registry.get(created.session_id)
                session = record.session
                fact_ids = session.fact_ids
                real_merge = session.merge
                calls = []

                def flaky_merge(answers):
                    calls.append(answers)
                    if len(calls) == 2:
                        raise OSError("worker pipe broke")
                    return real_merge(answers)

                session.merge = flaky_merge
                # Three merges queued before the drainer wakes: each one is
                # its own job.
                results = await asyncio.gather(
                    *(
                        service.post_answers(created.session_id, {fact_ids[i]: True})
                        for i in range(3)
                    ),
                    return_exceptions=True,
                )
                session.merge = real_merge

                first, failed, third = results
                assert first.rounds_merged == 1 and first.answers_merged == 1
                # The failing merge gets the failure, not retry-safe; its
                # charge stands.
                assert type(failed) is ServiceError and not failed.retry_safe
                assert "merge failed" in str(failed)
                # The merge queued behind it applies normally.
                assert third.rounds_merged == 2 and third.answers_merged == 1
                assert record.spent == 3
                assert session.rounds_merged == 2
                metrics = service.metrics()
                assert metrics["merges"]["count"] == 2 and metrics["errors"] == 1
                # The session keeps serving after the failure.
                reply = await service.select_next(created.session_id, batch=1)
                assert reply.task_ids

        run(scenario())

    def test_runtime_options_the_service_cannot_honour_are_rejected(self):
        with pytest.raises(TypeError):
            RefinementService(RuntimeOptions())
        with pytest.raises(TypeError):
            RefinementService(pools=2)


class TestBackpressure:
    def test_full_queue_fails_fast_with_429(self, monkeypatch):
        monkeypatch.setattr(server, "_INLINE_WORK", 0)

        async def scenario():
            service = RefinementService(max_pending=1, executor_workers=1)
            async with service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=50
                )
                fact = make_prior().fact_ids[0]
                # Pin the sole executor thread so the drainer stalls
                # mid-merge with its queue still bounded at one slot.
                loop = asyncio.get_running_loop()
                gate_entered = loop.create_future()
                release = threading.Event()

                def gate():
                    loop.call_soon_threadsafe(gate_entered.set_result, None)
                    release.wait(timeout=10)

                blocker = loop.run_in_executor(service._executor, gate)
                await gate_entered

                first = asyncio.ensure_future(
                    service.post_answers(created.session_id, {fact: True})
                )
                await asyncio.sleep(0.05)  # drainer dequeues it, stalls on executor
                second = asyncio.ensure_future(
                    service.post_answers(created.session_id, {fact: False})
                )
                await asyncio.sleep(0.05)  # fills the single queue slot
                with pytest.raises(SessionOverloadedError) as excinfo:
                    await service.post_answers(created.session_id, {fact: True})
                assert excinfo.value.status == 429

                release.set()
                await blocker
                reports = await asyncio.gather(first, second)
                assert [r.rounds_merged for r in reports] == [1, 2]
                assert service.metrics()["rejected_overload"] == 1

        run(scenario())


class TestSerialEquivalence:
    """Satellite: interleaved async tenants == serial replay, per session."""

    ROUNDS = 3
    BATCH = 2

    def _tenant_setup(self, tenant):
        prior = dense_distribution(5, 24, seed=20 + tenant)
        channel = (
            CrowdModel(0.8)
            if tenant % 2 == 0
            else PerFactChannelModel(
                0.8, {f: 0.65 + 0.02 * i for i, f in enumerate(prior.fact_ids)}
            )
        )
        return prior, channel

    async def _drive_tenant(self, service, session_id, tenant):
        trajectory = []
        for round_index in range(self.ROUNDS):
            reply = await service.select_next(session_id, batch=self.BATCH)
            answers = scripted_answers(reply.task_ids, round_index + tenant)
            await service.post_answers(session_id, answers)
            trajectory.append((reply.task_ids, reply.objective))
            await asyncio.sleep(0)  # force interleaving points between tenants
        view = await service.get_posterior(session_id)
        return trajectory, view.marginals

    def _replay_serially(self, tenant):
        prior, channel = self._tenant_setup(tenant)
        session = RefinementSession(prior, channel)
        selector = get_selector("greedy_prune_pre")
        trajectory = []
        for round_index in range(self.ROUNDS):
            result = session.select(selector, self.BATCH)
            session.merge(scripted_answers(result.task_ids, round_index + tenant))
            trajectory.append((tuple(result.task_ids), result.objective))
        return trajectory, session.marginals()

    def test_three_interleaved_tenants_match_serial_replay(self):
        tenants = range(3)

        async def scenario():
            async with RefinementService() as service:
                sessions = []
                for tenant in tenants:
                    prior, channel = self._tenant_setup(tenant)
                    created = await service.create_session(
                        prior, channel, budget=self.ROUNDS * self.BATCH
                    )
                    sessions.append(created.session_id)
                return await asyncio.gather(
                    *(
                        self._drive_tenant(service, session_id, tenant)
                        for tenant, session_id in zip(tenants, sessions)
                    )
                )

        service_runs = run(scenario())
        for tenant, (trajectory, marginals) in zip(tenants, service_runs):
            serial_trajectory, serial_marginals = self._replay_serially(tenant)
            assert [ids for ids, _ in trajectory] == [
                ids for ids, _ in serial_trajectory
            ]
            for (_, objective), (_, serial_objective) in zip(
                trajectory, serial_trajectory
            ):
                assert abs(objective - serial_objective) < 1e-9
            for fact_id, marginal in serial_marginals.items():
                assert abs(marginals[fact_id] - marginal) < 1e-12
