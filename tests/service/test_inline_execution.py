"""Where the refinement service computes: inline on the loop, or on a thread.

A job whose work stays below ``server._INLINE_WORK`` runs inline on the event
loop; every other job hops to the executor (``RefinementService._runs_inline``
states the rule).  These tests pin the placement rule, show that it changes
no result (a service run with every job hopping answers with the very same
floats), and show why the rule keeps the hop at all: a small tenant's selects
stay fast while a large tenant scans beside it.
"""

import asyncio
import statistics
import threading
import time

import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import TaskSelector
from repro.core.selection.session import RefinementSession
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.service import RefinementService, server

from tests.core.selection.test_persistent_pool import (
    dense_distribution,
    scripted_answers,
)

SELECTOR = "greedy_prune_pre"


def run(coroutine):
    return asyncio.run(coroutine)


def _spy_threads(monkeypatch):
    """Record the thread name of every scan, merge and posterior build."""
    seen = {"select": [], "merge": [], "posterior": []}

    def wrap(owner, name, label):
        original = getattr(owner, name)

        def spy(self, *args, **kwargs):
            seen[label].append(threading.current_thread().name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    wrap(TaskSelector, "select_with_session", "select")
    wrap(RefinementSession, "merge", "merge")
    # The posterior build reads the marginals; nothing else on these paths
    # does.
    wrap(RefinementSession, "marginals", "posterior")
    return seen


async def _one_round(service, prior, selector=SELECTOR):
    created = await service.create_session(
        prior, CrowdModel(0.8), budget=6, selector=selector
    )
    reply = await service.select_next(created.session_id, batch=2)
    assert not reply.cached
    await service.post_answers(created.session_id, scripted_answers(reply.task_ids, 0))
    await service.get_posterior(created.session_id)
    return threading.current_thread().name


class TestPlacement:
    def test_a_paper_size_session_computes_on_the_loop(self, monkeypatch):
        seen = _spy_threads(monkeypatch)
        prior = dense_distribution(11, 2048, seed=60)
        assert prior.support_size * prior.num_facts < server._INLINE_WORK

        async def scenario():
            async with RefinementService() as service:
                return await _one_round(service, prior)

        loop_thread = run(scenario())
        assert seen == {label: [loop_thread] for label in seen}

    def test_a_session_at_the_threshold_hops(self, monkeypatch):
        seen = _spy_threads(monkeypatch)
        prior = dense_distribution(16, 4096, seed=61)
        assert prior.support_size * prior.num_facts == server._INLINE_WORK

        async def scenario():
            async with RefinementService() as service:
                return await _one_round(service, prior)

        loop_thread = run(scenario())
        for label, threads in seen.items():
            assert threads and loop_thread not in threads, label
            assert all(name.startswith("refinement") for name in threads), label

    @pytest.mark.parametrize(
        "prior, inline_k",
        [
            # Each greedy step scans every remaining candidate once more.
            (dense_distribution(11, 2048, seed=65), 3),
            # Past the support's size, the answer tables set a step's cost.
            (
                generate_scale_distribution(
                    ScaleCorpusConfig(num_facts=63, support_size=8, seed=68)
                ),
                7,
            ),
        ],
        ids=["2048x11", "8x63"],
    )
    def test_a_select_of_one_more_task_can_tip_over_the_threshold(
        self, monkeypatch, prior, inline_k
    ):
        seen = _spy_threads(monkeypatch)

        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    prior, CrowdModel(0.8), budget=4 * inline_k
                )
                for batch in (inline_k, inline_k + 1):
                    reply = await service.select_next(created.session_id, batch=batch)
                    await service.post_answers(
                        created.session_id, scripted_answers(reply.task_ids, batch)
                    )
                return threading.current_thread().name

        loop_thread = run(scenario())
        inline, hopped = seen["select"]
        assert inline == loop_thread
        assert hopped != loop_thread and hopped.startswith("refinement")
        assert seen["merge"] == [loop_thread, loop_thread]

    def test_a_batch_of_merges_counts_every_merge(self, monkeypatch):
        # Merges queued back to back run as one batch: one merge of a
        # 2048 × 11 book runs inline, a batch of three hops.
        seen = _spy_threads(monkeypatch)
        prior = dense_distribution(11, 2048, seed=69)
        facts = prior.fact_ids

        async def scenario():
            async with RefinementService() as service:
                created = await service.create_session(
                    prior, CrowdModel(0.8), budget=20
                )
                sid = created.session_id
                await service.post_answers(sid, scripted_answers(facts[:1], 0))
                await asyncio.gather(
                    *(
                        service.post_answers(sid, scripted_answers(facts[i:i + 1], i))
                        for i in (1, 2, 3)
                    )
                )
                assert service.metrics()["merges"]["batches"] == 2
                return threading.current_thread().name

        loop_thread = run(scenario())
        single, *batch = seen["merge"]
        assert single == loop_thread
        assert len(batch) == 3
        assert all(name.startswith("refinement") for name in batch)

    def test_an_exhaustive_selector_scans_on_a_thread(self, monkeypatch):
        # ``opt`` scores every k-subset on a fresh engine, however small the
        # book: its scan hops, while the session's merge and posterior build
        # stay inline.
        seen = _spy_threads(monkeypatch)
        prior = dense_distribution(11, 2048, seed=66)

        async def scenario():
            async with RefinementService() as service:
                return await _one_round(service, prior, selector="opt")

        loop_thread = run(scenario())
        [scan] = seen["select"]
        assert scan != loop_thread and scan.startswith("refinement")
        assert seen["merge"] == seen["posterior"] == [loop_thread]

    def test_a_session_wider_than_one_mask_word_hops(self, monkeypatch):
        seen = _spy_threads(monkeypatch)
        prior = generate_scale_distribution(
            ScaleCorpusConfig(
                num_facts=server._INLINE_MAX_FACTS + 1, support_size=8, seed=67
            )
        )
        assert prior.support_size * prior.num_facts < server._INLINE_WORK

        async def scenario():
            async with RefinementService() as service:
                return await _one_round(service, prior)

        loop_thread = run(scenario())
        for label, threads in seen.items():
            assert threads and loop_thread not in threads, label
            assert all(name.startswith("refinement") for name in threads), label

    @pytest.mark.parallel
    def test_a_pool_attached_session_hops_whatever_its_size(self, monkeypatch):
        seen = _spy_threads(monkeypatch)
        prior = dense_distribution(5, 24, seed=62)
        runtime = RuntimeOptions(workers=2, parallel_threshold=0)

        async def scenario():
            async with RefinementService(runtime) as service:
                return await _one_round(service, prior)

        loop_thread = run(scenario())
        for label, threads in seen.items():
            assert threads and loop_thread not in threads, label
            assert all(name.startswith("refinement") for name in threads), label


class TestInlineEqualsHop:
    """Four interleaved tenants, inline and hopped: the very same floats."""

    SHAPES = ((5, 24), (8, 200), (10, 700), (11, 2048))
    ROUNDS = 4
    BATCH = 3

    async def _tenant(self, service, tenant, facts, rows):
        prior = dense_distribution(facts, rows, seed=70 + tenant)
        channel = (
            CrowdModel(0.8)
            if tenant % 2 == 0
            else PerFactChannelModel(
                0.8, {f: 0.65 + 0.02 * i for i, f in enumerate(prior.fact_ids)}
            )
        )
        created = await service.create_session(prior, channel, budget=60)
        rounds = []
        for round_index in range(self.ROUNDS):
            reply = await service.select_next(created.session_id, batch=self.BATCH)
            answers = scripted_answers(reply.task_ids, round_index + tenant)
            await service.post_answers(created.session_id, answers)
            rounds.append((reply.task_ids, reply.objective))
            await asyncio.sleep(0)  # interleave the tenants
        view = await service.get_posterior(created.session_id)
        return rounds, view.support, view.marginals, view.utility

    async def _drive(self):
        async with RefinementService() as service:
            return await asyncio.gather(
                *(
                    self._tenant(service, tenant, facts, rows)
                    for tenant, (facts, rows) in enumerate(self.SHAPES)
                )
            )

    def test_every_tenant_answers_identically_when_every_job_hops(self, monkeypatch):
        assert all(f * r < server._INLINE_WORK for f, r in self.SHAPES)
        inline = run(self._drive())
        monkeypatch.setattr(server, "_INLINE_WORK", 0)
        hopped = run(self._drive())
        for mine, theirs in zip(inline, hopped):
            assert mine == theirs


class TestHeadOfLine:
    """A large tenant's scans must not queue a small tenant's requests."""

    SMALL_ROUNDS = 200

    def test_a_small_tenant_stays_fast_beside_a_large_scan(self):
        large = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=30, support_size=1 << 18, seed=63)
        )
        small = dense_distribution(11, 2048, seed=64)
        assert large.support_size * large.num_facts >= server._INLINE_WORK

        async def scenario():
            async with RefinementService() as service:
                channel = CrowdModel(0.8)
                big = await service.create_session(large, channel, budget=10**6)
                little = await service.create_session(small, channel, budget=10**6)
                large_ms, small_ms = [], []
                finished = False

                async def timed_round(session_id, latencies, round_index):
                    started = time.perf_counter()
                    reply = await service.select_next(session_id, batch=3)
                    latencies.append((time.perf_counter() - started) * 1e3)
                    # A merge between selects keeps every select a fresh scan.
                    await service.post_answers(
                        session_id, scripted_answers(reply.task_ids, round_index)
                    )

                async def large_tenant():
                    round_index = 0
                    while not finished or len(large_ms) < 3:
                        await timed_round(big.session_id, large_ms, round_index)
                        round_index += 1

                async def small_tenant():
                    nonlocal finished
                    for round_index in range(self.SMALL_ROUNDS):
                        await timed_round(little.session_id, small_ms, round_index)
                    finished = True

                await asyncio.gather(large_tenant(), small_tenant())
                return large_ms, small_ms

        large_ms, small_ms = run(scenario())
        small_ms.sort()
        small_p99 = small_ms[int(0.99 * len(small_ms)) - 1]
        assert small_p99 < statistics.median(large_ms), (small_p99, large_ms)
