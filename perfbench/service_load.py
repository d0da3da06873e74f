"""The ``service_tcp`` workload: closed-loop tenants against ``crowdfusion serve``."""

from __future__ import annotations

import asyncio
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (
    ROOT,
    Outcome,
    at_unit_speed,
    book_problems,
    end_to_end_metrics,
    host_slowdown,
    problems_inputs,
    repeated_setup,
    run_units,
    tracing_overhead,
)
from spans import Instrument, layer_metrics, trace_targets

SELECTOR = "greedy_prune_pre"
SERVICE_BOOKS = 100
BUDGET = 60
BATCH = 3
#: Accuracy of the answers the tenants post (drawn from gold).
ANSWER_ACCURACY = 0.8
#: The channel model every session is created with.
CHANNEL_ACCURACY = 0.8
CLIENTS = 2
#: A pass over every session is cut into this many units of about a second.
PARTS = 4
READY_TIMEOUT_S = 60.0
#: Replayed objectives and posteriors must agree this closely.
REPLAY_TOLERANCE = 1e-12

_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")


@dataclass
class _SessionLog:
    rounds: List[Tuple[Tuple[str, ...], float, Dict[str, bool]]] = field(default_factory=list)
    support: Tuple[Tuple[int, float], ...] = ()
    utility: float = 0.0


@dataclass
class _Pass:
    wall: float
    merges: int
    requests: int
    errors: List[str]
    logs: Dict[int, _SessionLog]
    select_latency: List[float]
    post_latency: List[float]
    slowdown: float = 1.0


def _start_server() -> Tuple[subprocess.Popen, int]:
    """Spawn ``crowdfusion serve --port 0``; wait for its listening line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    deadline = time.perf_counter() + READY_TIMEOUT_S
    line = ""
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.5)
        if ready:
            line = process.stdout.readline()
            break
        if process.poll() is not None:
            break
    match = _LISTENING.search(line)
    if match is None:
        _stop_server(process)
        raise RuntimeError(f"service did not start listening: {line!r}")
    return process, int(match.group(1))


def _stop_server(process: subprocess.Popen) -> None:
    """Interrupt the server (graceful shutdown) and wait for it to exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


async def _tenant(
    port: int, sessions: List[Tuple[int, Any, Dict[str, bool]]], seed: int, out: _Pass
) -> None:
    """One closed-loop client: its sessions one after another."""
    from repro.core.crowd import CrowdModel
    from repro.service.client import NO_RETRY, ServiceClient

    channel = CrowdModel(CHANNEL_ACCURACY)
    client = await ServiceClient.connect("127.0.0.1", port, retry=NO_RETRY)
    async with client:
        for index, prior, gold in sessions:
            rng = random.Random(f"{seed}:{index}")
            log = _SessionLog()
            try:
                out.requests += 1
                created = await client.create_session(prior, channel, budget=BUDGET)
                session_id = created.session_id
                while True:
                    out.requests += 1
                    started = time.perf_counter()
                    reply = await client.select_next(session_id, batch=BATCH)
                    out.select_latency.append(time.perf_counter() - started)
                    if not reply.task_ids:
                        break
                    answers = {
                        task: gold[task] if rng.random() < ANSWER_ACCURACY else not gold[task]
                        for task in reply.task_ids
                    }
                    out.requests += 1
                    started = time.perf_counter()
                    report = await client.post_answers(session_id, answers)
                    out.post_latency.append(time.perf_counter() - started)
                    out.merges += 1
                    log.rounds.append((reply.task_ids, reply.objective, answers))
                    if report.budget_remaining <= 0:
                        break
                out.requests += 1
                posterior = await client.get_posterior(session_id)
                log.support, log.utility = posterior.support, posterior.utility
                out.requests += 1
                await client.close_session(session_id)
            except Exception as error:  # a failed request is counted, not fatal
                out.errors.append(f"session {index}: {type(error).__name__}: {error}")
            out.logs[index] = log


async def _fetch_metrics(port: int) -> Dict[str, Any]:
    from repro.service.client import ServiceClient

    client = await ServiceClient.connect("127.0.0.1", port)
    async with client:
        return await client.metrics()


def _client_targets() -> List[Tuple[Any, str, str, bool]]:
    from repro.service.client import ServiceClient

    return [
        (ServiceClient, "select_next", "client.select", True),
        (ServiceClient, "post_answers", "client.post", True),
        (ServiceClient, "create_session", "client.other", True),
        (ServiceClient, "get_posterior", "client.other", True),
        (ServiceClient, "close_session", "client.other", True),
    ]


def _replay(
    index: int, prior_payload: Dict[str, Any], log: _SessionLog
) -> Optional[str]:
    """Re-run one session in process on the same answers; a mismatch or None."""
    from repro.core.answers import AnswerSet
    from repro.core.crowd import CrowdModel
    from repro.core.selection import get_selector
    from repro.core.selection.session import RefinementSession
    from repro.service.api import decode_distribution

    session = RefinementSession(
        decode_distribution(prior_payload), CrowdModel(CHANNEL_ACCURACY)
    )
    selector = get_selector(SELECTOR)
    remaining = BUDGET
    for number, (task_ids, objective, answers) in enumerate(log.rounds):
        k = min(BATCH, remaining, session.num_facts)
        result = selector.select_with_session(session, k)
        if tuple(result.task_ids) != tuple(task_ids):
            return f"session {index} round {number}: tasks {task_ids} != replay {result.task_ids}"
        if abs(result.objective - objective) > REPLAY_TOLERANCE:
            return f"session {index} round {number}: objective differs from replay"
        session.merge(AnswerSet.from_mapping(answers))
        remaining -= len(task_ids)
    replayed = tuple(session.distribution.items())
    if [mask for mask, _ in replayed] != [mask for mask, _ in log.support]:
        return f"session {index}: posterior support differs from replay"
    for (_mask, mine), (_same, theirs) in zip(replayed, log.support):
        if abs(mine - theirs) > REPLAY_TOLERANCE:
            return f"session {index}: posterior mass differs from replay"
    if abs(session.utility() - log.utility) > REPLAY_TOLERANCE:
        return f"session {index}: posterior utility differs from replay"
    return None


def service_tcp(seed: int, seconds: float, trace: bool) -> Outcome:
    """Two tenants drive a share of the priors' sessions to budget per unit."""
    from repro.fusion.crh import ModifiedCRH
    from repro.service.api import encode_distribution

    problems, corpus_s, prior_s = book_problems(SERVICE_BOOKS, seed, ModifiedCRH())
    sessions = [(index, p.prior, p.gold) for index, p in enumerate(problems)]
    # Unit q drives every PARTS-th session from q, split over the clients.
    shares = [
        [sessions[part::PARTS][client::CLIENTS] for client in range(CLIENTS)]
        for part in range(PARTS)
    ]

    server: Optional[subprocess.Popen] = None
    metrics: Dict[str, Any] = {}
    try:
        (server, port), *setup = repeated_setup(
            _start_server, release=lambda started: _stop_server(started[0])
        )

        def unit(traced: bool, index: int) -> _Pass:
            out = _Pass(0.0, 0, 0, [], {}, [], [])
            instrument = Instrument()

            async def drive() -> None:
                await asyncio.gather(
                    *(_tenant(port, share, seed, out) for share in shares[index % PARTS])
                )

            with instrument.installed(_client_targets() if traced else []):
                started = time.perf_counter()
                asyncio.run(drive())
                out.wall = time.perf_counter() - started
            return out

        units = run_units(seconds, unit, trace, cycle=PARTS)
        if trace:
            metrics = asyncio.run(_fetch_metrics(port))
    finally:
        if server is not None:
            _stop_server(server)

    untraced = [u for traced, u in units if not traced]
    traced = [u for traced, u in units if traced]
    first = units[:PARTS]

    # Output checks: every unit repeats the first one over the same sessions
    # exactly, and the first pass over all sessions matches a standalone
    # in-process replay of the same answers.
    errors: List[str] = []
    failed = 0
    for number, (_traced, u) in enumerate(units):
        failed += len(u.errors)
        errors.extend(f"unit {number}: {message}" for message in u.errors)
        if u.logs != first[number % PARTS][1].logs:
            errors.append(f"unit {number}: sessions differ from unit {number % PARTS}")
    logs = {index: log for _traced, u in first for index, log in u.logs.items()}
    tracer = Instrument()
    payloads = {index: encode_distribution(prior) for index, prior, _ in sessions}
    with tracer.installed(trace_targets([SELECTOR]) if trace else []):
        for index, log in sorted(logs.items()):
            mismatch = _replay(index, payloads[index], log)
            if mismatch is not None:
                errors.append(mismatch)

    calibrated, raw = end_to_end_metrics(
        setup,
        untraced,
        segments=lambda u: [(u.merges, u.wall, u.slowdown)],
        select=lambda u: at_unit_speed(u, u.select_latency),
        post=lambda u: at_unit_speed(u, u.post_latency),
    )

    per_layer: Dict[str, float] = {
        "setup.corpus_s": corpus_s,
        "setup.prior_s": prior_s,
        "host.slowdown": host_slowdown(untraced),
    }
    if trace:
        per_layer.update(layer_metrics(tracer, 1))
        per_layer["tracing.overhead_ratio"] = tracing_overhead(untraced, traced)
        merges, selections = metrics["merges"], metrics["selections"]
        server_select = selections["latency"]["p50_ms"]
        recovery = metrics["recovery"]
        per_layer.update(
            {
                "service.select_server_p50_ms": server_select,
                "service.merge_server_p50_ms": merges["latency"]["p50_ms"],
                "service.hop_ms": raw["select_p50_ms"] - server_select,
                "service.merges_per_batch": merges["count"] / max(1, merges["batches"]),
                "service.errors": metrics["errors"],
                "service.rejected_overload": metrics["rejected_overload"],
                "pool.rebuilds": recovery["pool_rebuilds"],
                "pool.breaker_trips": recovery["breaker_trips"],
            }
        )

    attempted = sum(u.requests for _traced, u in units)
    inputs = problems_inputs(problems)
    inputs["requests_per_pass"] = sum(u.requests for _traced, u in first)
    inputs["clients"] = CLIENTS
    return Outcome(
        attempted=attempted,
        failed=attempted if errors else failed,
        end_to_end=calibrated,
        per_layer=per_layer,
        raw=raw,
        inputs=inputs,
        errors=errors,
    )
