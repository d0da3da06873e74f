"""Refinement-service benchmarks: multi-tenant throughput and latency.

Two scenarios for the ``service/*`` family of the shared selection
artifact, both driving the in-process :class:`RefinementService` (no
sockets, so the numbers isolate the service layer itself — queueing,
placement, caching — from TCP noise):

* **multi-tenant throughput** — N concurrent tenants each running a full
  select → post round loop; wall-clock, requests/sec, and the service's own
  selection-latency percentiles, with the per-tenant trajectories asserted
  identical to standalone serial sessions (the service must add overhead,
  never divergence);
* **failed-merge repair** — three queued merges whose second one crashes;
  the client resends the failed one, and the repaired posterior must equal
  the undisturbed run's.

Scenarios merge-append into ``benchmarks/results/BENCH_selection.json``
under ``service/*`` keys; schema in ``benchmarks/README.md``.
"""

import asyncio
import time

import numpy as np

import _bench_utils  # noqa: F401  (sys.path setup for src/)

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import RefinementSession, get_selector
from repro.service import RefinementService

from bench_selection_hotpath import _record_scenarios

SELECTOR = "greedy_prune_pre"


def service_distribution(num_facts, support, seed):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    return JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)),
        dict(zip((int(mask) for mask in masks), probabilities)),
    )


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


async def drive_tenant(service, session_id, tenant, rounds, k):
    trajectory = []
    for round_index in range(rounds):
        reply = await service.select_next(session_id, batch=k)
        await service.post_answers(
            session_id, scripted_answers(reply.task_ids, round_index + tenant)
        )
        trajectory.append(tuple(reply.task_ids))
    return trajectory


def standalone_trajectory(distribution, channel, tenant, rounds, k):
    session = RefinementSession(distribution, channel)
    selector = get_selector(SELECTOR)
    trajectory = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        session.merge(scripted_answers(result.task_ids, round_index + tenant))
        trajectory.append(tuple(result.task_ids))
    return trajectory


def run_tenant_fleet(tenants, rounds, k, num_facts, support):
    """One timed fleet run; returns (trajectories, wall_seconds, metrics)."""
    problems = [
        (service_distribution(num_facts, support, seed=50 + t), CrowdModel(0.8))
        for t in range(tenants)
    ]

    async def scenario():
        async with RefinementService() as service:
            sessions = []
            for prior, channel in problems:
                created = await service.create_session(
                    prior, channel, budget=rounds * k, selector=SELECTOR
                )
                sessions.append(created.session_id)
            started = time.perf_counter()
            trajectories = await asyncio.gather(
                *(
                    drive_tenant(service, session_id, tenant, rounds, k)
                    for tenant, session_id in enumerate(sessions)
                )
            )
            elapsed = time.perf_counter() - started
            return trajectories, elapsed, service.metrics()

    trajectories, elapsed, metrics = asyncio.run(scenario())
    for tenant, (prior, channel) in enumerate(problems):
        expected = standalone_trajectory(prior, channel, tenant, rounds, k)
        assert trajectories[tenant] == expected, (
            f"tenant {tenant} diverged from its standalone session"
        )
    return trajectories, elapsed, metrics, problems


def test_multi_tenant_throughput_serial_runtime():
    tenants, rounds, k = 4, 4, 2
    _, elapsed, metrics, problems = run_tenant_fleet(
        tenants=tenants, rounds=rounds, k=k, num_facts=10, support=256,
    )

    # The non-service baseline: the same work as plain session loops.
    started = time.perf_counter()
    for tenant, (prior, channel) in enumerate(problems):
        standalone_trajectory(prior, channel, tenant, rounds, k)
    baseline = time.perf_counter() - started

    requests = tenants * rounds * 2  # one select + one post per round
    entry = {
        "suite": "service",
        "description": (
            f"{tenants} concurrent tenants x {rounds} select/post rounds "
            f"(k={k}) through the in-process async service (serial runtime), "
            "trajectories asserted identical to standalone sessions; "
            "baseline is the same work as plain session loops."
        ),
        "tenants": tenants,
        "rounds": rounds,
        "k": k,
        "num_facts": 10,
        "support": 256,
        "requests": requests,
        "wall_seconds": elapsed,
        "requests_per_second": requests / elapsed,
        "baseline_wall_seconds": baseline,
        "service_overhead_factor": elapsed / baseline if baseline > 0 else None,
        "merges_per_second": metrics["merges"]["per_second"],
        "selection_latency_ms": metrics["selections"]["latency"],
        "merge_latency_ms": metrics["merges"]["latency"],
        "identical_task_sequences": True,
    }
    _record_scenarios({f"service/tenants{tenants}_rounds{rounds}_serial": entry})


# -- recovery scenarios (the service under injected faults) ---------------------------

from repro.testing import faults  # noqa: E402
from repro.testing.faults import FaultPlan  # noqa: E402


def test_recovery_failed_merge_and_retry():
    """service/recovery_failed_merge_retry: the cost of repairing a failed merge.

    Three queued merges run as three jobs, and the second one crashes; the
    merges before and behind it apply, the client resends the failed one,
    and the repaired posterior must equal the undisturbed run's.  Records
    the wall-clock cost of the fail-and-retry round trip next to the clean
    wave.
    """
    prior = service_distribution(10, 256, seed=71)
    fact_ids = prior.fact_ids
    waves = [
        {fact_ids[0]: True, fact_ids[1]: False},
        {fact_ids[2]: True, fact_ids[3]: True},
        {fact_ids[4]: False, fact_ids[5]: True},
    ]

    async def clean_wave():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            started = time.perf_counter()
            await asyncio.gather(
                *(service.post_answers(created.session_id, w) for w in waves)
            )
            elapsed = time.perf_counter() - started
            return elapsed, await service.get_posterior(created.session_id)

    async def faulted_wave():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            started = time.perf_counter()
            with faults.injected(FaultPlan(fail_merge_at=2)):
                results = await asyncio.gather(
                    *(service.post_answers(created.session_id, w) for w in waves),
                    return_exceptions=True,
                )
            for wave, result in zip(waves, results):
                if isinstance(result, Exception):
                    await service.post_answers(created.session_id, wave)
            elapsed = time.perf_counter() - started
            view = await service.get_posterior(created.session_id)
            return elapsed, view, results

    baseline_elapsed, baseline_view = asyncio.run(clean_wave())
    elapsed, view, results = asyncio.run(faulted_wave())

    failed = sum(isinstance(r, Exception) for r in results)
    assert failed == 1, "expected exactly the crashed merge to fail"
    assert len(view.support) == len(baseline_view.support)
    for (mask, prob), (ref_mask, ref_prob) in zip(
        view.support, baseline_view.support
    ):
        assert mask == ref_mask
        assert abs(prob - ref_prob) < 1e-9

    entry = {
        "suite": "service",
        "description": (
            "Three queued merges whose second one crashes (injected): the "
            "merges before and behind it apply, the failed one is resent, "
            "and the repaired posterior equals the undisturbed run's "
            "(support probabilities within 1e-9)."
        ),
        "waves": len(waves),
        "answers_per_wave": 2,
        "failed_and_retried": failed,
        "baseline_wall_seconds": baseline_elapsed,
        "wall_seconds": elapsed,
        "repair_overhead_seconds": elapsed - baseline_elapsed,
        "identical_posterior": True,
    }
    _record_scenarios({"service/recovery_failed_merge_retry": entry})
