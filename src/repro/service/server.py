"""The asyncio multi-tenant refinement service.

:class:`RefinementService` exposes the paper's interactive loop — post crowd
answers, ask "which tasks next?", repeat under a running budget — as
addressable session resources on top of the persistent
:class:`~repro.core.selection.session.RefinementSession` runtime:

* ``create_session(distribution, channel, budget)`` registers a session and
  attaches it to one of a small set of shared persistent worker pools;
* ``post_answers(session_id, answers)`` folds a round of crowd answers into
  the posterior (the existing in-place Bayesian ``reweight``);
* ``get_posterior(session_id)`` / ``select_next(session_id, batch)`` read
  the current state, served from generation-keyed caches whenever nothing
  merged in between;
* ``metrics()`` reports live sessions, merge throughput, selection latency
  percentiles and shared-pool utilisation.

Concurrency model: every session owns a *bounded* job queue drained by one
asyncio task, so one tenant's requests execute strictly in submission order
(the property that makes a service trajectory bit-identical to the same
answer stream replayed through a standalone session) while different
tenants' jobs interleave freely on a small thread pool.  A full queue
rejects new work immediately with a 429-style
:class:`~repro.service.api.SessionOverloadedError` — fail-fast backpressure
instead of unbounded backlog.  Consecutive queued merges for one session are
drained in a single executor hop (request batching), which is what keeps
merge throughput flat as tenants get chattier.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.runtime import RuntimeOptions
from repro.service.api import (
    BudgetExhaustedError,
    DeadlineExceededError,
    MergeAbortedError,
    MergeReport,
    PosteriorView,
    SelectionReply,
    ServiceError,
    SessionClosed,
    SessionCreated,
    SessionOverloadedError,
    UnknownSessionError,
    ValidationFailedError,
    decode_answers,
)
from repro.service.batching import EngineGroup
from repro.service.metrics import ServiceMetrics
from repro.service.registry import SessionRecord, SessionRegistry
from repro.testing import faults

#: Default bound of a session's pending-request queue.
DEFAULT_MAX_PENDING = 8


def _deadline_from_ms(deadline_ms: Optional[int]) -> Optional[float]:
    """A request's ``deadline_ms`` as an absolute monotonic instant."""
    if deadline_ms is None:
        return None
    if deadline_ms <= 0:
        raise ValidationFailedError(
            f"deadline_ms must be positive, got {deadline_ms}"
        )
    return time.monotonic() + deadline_ms / 1000.0


@dataclass
class _Job:
    """One queued request: what to do, its input, and where the answer goes."""

    kind: str  # "merge" | "select" | "posterior" | "stop"
    payload: Any
    future: "Optional[asyncio.Future]"
    #: Absolute ``time.monotonic()`` instant after which the job must not
    #: *start* (``None`` = no deadline).  Enforced only at retry-safe points.
    deadline: Optional[float] = None

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


class _SessionWorker:
    """The per-session drainer: a bounded queue and one consuming task."""

    def __init__(self, service: "RefinementService", record: SessionRecord, bound: int):
        self._service = service
        self.record = record
        self.queue: "asyncio.Queue[_Job]" = asyncio.Queue(maxsize=bound)
        self.closed = False
        self.task = asyncio.get_running_loop().create_task(self._drain())
        self.task.add_done_callback(self._on_drain_done)

    def submit(
        self, kind: str, payload: Any, deadline: Optional[float] = None
    ) -> "asyncio.Future":
        """Enqueue one request, failing fast when the tenant is overloaded."""
        if self.closed:
            raise UnknownSessionError(
                f"session {self.record.session_id} is closing"
            )
        future = asyncio.get_running_loop().create_future()
        try:
            self.queue.put_nowait(_Job(kind, payload, future, deadline))
        except asyncio.QueueFull:
            self._service._metrics.rejected_overload += 1
            raise SessionOverloadedError(
                f"session {self.record.session_id} has "
                f"{self.queue.maxsize} requests pending; retry later"
            ) from None
        return future

    async def stop(self) -> None:
        """Refuse new work, let queued jobs finish, then end the drainer."""
        if self.closed:
            await asyncio.wait([self.task])
            return
        self.closed = True
        # An awaited put: the stop marker queues even when the bound is hit,
        # and lands *behind* every already-accepted job.  asyncio.wait (not a
        # bare await) so a drainer that died on an unexpected error — whose
        # pending futures _on_drain_done already failed — cannot re-raise out
        # of close_session/shutdown.
        await self.queue.put(_Job("stop", None, None))
        await asyncio.wait([self.task])

    def _on_drain_done(self, task: "asyncio.Task") -> None:
        """Safety net: a dying drainer must never leave clients hanging.

        Job execution converts every failure to a per-job ``ServiceError``,
        so the drain task ending with an exception should be unreachable —
        but if it ever happens, fail everything still queued instead of
        letting the submitted futures (and their awaiting clients) hang
        forever.
        """
        if task.cancelled() or task.exception() is None:
            return
        self.closed = True
        error = ServiceError(
            f"session {self.record.session_id} worker died: {task.exception()!r}"
        )
        while True:
            try:
                job = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job.future is not None and not job.future.done():
                self._service._metrics.errors += 1
                job.future.set_exception(error)

    async def _drain(self) -> None:
        stopping = False
        while not stopping:
            job = await self.queue.get()
            if job.kind == "stop":
                break
            if job.kind == "merge":
                # Batch every consecutively queued merge into one executor
                # hop; a non-merge job ends the batch and runs right after.
                batch = [job]
                carry: Optional[_Job] = None
                while True:
                    try:
                        pending = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if pending.kind == "stop":
                        stopping = True
                        break
                    if pending.kind == "merge":
                        batch.append(pending)
                    else:
                        carry = pending
                        break
                await self._service._run_merge_batch(self.record, batch)
                if carry is not None:
                    await self._service._run_job(self.record, carry)
            else:
                await self._service._run_job(self.record, job)


class RefinementService:
    """Async multi-tenant refinement sessions on shared persistent pools.

    Parameters
    ----------
    runtime:
        :class:`~repro.core.runtime.RuntimeOptions` for the shared scan
        runtime.  When it carries workers, the service builds ``pools``
        shared :class:`~repro.core.selection.parallel.EvaluatorPool`
        instances and multiplexes every session onto them; without workers
        all scans run serially on the executor threads.
        ``recalibrate`` and ``parallel_entities`` are rejected
        with :class:`~repro.service.api.ValidationFailedError`: the service
        runtime does not implement them, and silently ignoring them would
        hand a tenant different trajectories than the options promise.
    pools:
        Number of shared evaluator pools (ignored without workers).  Total
        resident worker processes are ``pools × workers`` regardless of the
        session count.
    max_pending:
        Per-session queue bound; the 429 threshold.
    executor_workers:
        Threads for compute offload.  Defaults to ``pools + 4`` so distinct
        tenants' scans and merges overlap without unbounded thread growth.
    state_dir:
        Directory for durable session snapshots.  With it set, every
        session's posterior/channel/budget state is snapshotted (debounced
        after merges, unconditionally on eviction and shutdown) and a
        restarted service transparently revives sessions on their next
        request — ``get_posterior`` after a restart matches the pre-restart
        posterior to within float-serialisation exactness.
    max_sessions:
        LRU cap on resident sessions (requires ``state_dir``): creating or
        reviving past the cap evicts the least-recently-used idle session to
        disk instead of dropping it.
    idle_ttl_s:
        Idle timeout (requires ``state_dir``): a housekeeping task evicts
        sessions untouched for this long to disk; their next request revives
        them.
    """

    def __init__(
        self,
        runtime: Optional[RuntimeOptions] = None,
        *,
        pools: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        executor_workers: Optional[int] = None,
        latency_window: int = 1024,
        state_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        snapshot_debounce_s: float = 1.0,
    ):
        if max_pending < 1:
            raise ValidationFailedError(
                f"max_pending must be at least 1, got {max_pending}"
            )
        if runtime is not None and runtime.recalibrate:
            raise ValidationFailedError(
                "RuntimeOptions.recalibrate is not supported for service "
                "sessions: the registry creates sessions without "
                "re-calibration, so the flag would be silently ignored"
            )
        if runtime is not None and runtime.parallel_entities is not None:
            raise ValidationFailedError(
                "RuntimeOptions.parallel_entities is experiment-level entity "
                "fan-out and has no meaning for service sessions; configure "
                "workers (and pools) instead"
            )
        policy = runtime.parallel_policy if runtime is not None else None
        self._group = EngineGroup(policy, pools=pools)
        self._registry = SessionRegistry(
            self._group,
            kernel=runtime.kernel if runtime is not None else "auto",
            snapshot_dir=state_dir,
            max_sessions=max_sessions,
            idle_ttl_s=idle_ttl_s,
            snapshot_debounce_s=snapshot_debounce_s,
        )
        self._metrics = ServiceMetrics(latency_window)
        self._max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers
            if executor_workers is not None
            else pools + 4,
            thread_name_prefix="refinement",
        )
        self._workers: Dict[str, _SessionWorker] = {}
        self._housekeeper: "Optional[asyncio.Task]" = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def sessions_live(self) -> int:
        return len(self._registry)

    def session_ids(self) -> "tuple[str, ...]":
        return self._registry.session_ids()

    async def __aenter__(self) -> "RefinementService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain every session, release the shared pools, stop the executor."""
        if self._closed:
            return
        self._closed = True
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            try:
                await self._housekeeper
            except asyncio.CancelledError:
                pass
            self._housekeeper = None
        for worker in list(self._workers.values()):
            await worker.stop()
        self._workers.clear()
        # Registry close flushes every dirty session's snapshot first, so a
        # graceful shutdown is always restorable.
        self._registry.close()
        self._executor.shutdown(wait=True)

    # -- eviction housekeeping ---------------------------------------------------------

    def _ensure_housekeeper(self) -> None:
        """Start the idle-TTL sweeper lazily (needs a running loop)."""
        if self._registry.idle_ttl_s is None or self._housekeeper is not None:
            return
        self._housekeeper = asyncio.get_running_loop().create_task(
            self._housekeep()
        )

    async def _housekeep(self) -> None:
        interval = max(0.05, min(self._registry.idle_ttl_s / 2.0, 5.0))
        while not self._closed:
            await asyncio.sleep(interval)
            for session_id in self._registry.idle_candidates():
                await self._evict_session(session_id)

    async def _evict_session(self, session_id: str) -> bool:
        """Evict one idle session to disk; refuses sessions with queued work."""
        worker = self._workers.get(session_id)
        if worker is not None:
            if worker.closed or not worker.queue.empty():
                return False
            await worker.stop()
            # Anything that raced into existence between the emptiness check
            # and the stop was answered by the drainer before it ended.
            self._workers.pop(session_id, None)
        if self._registry.peek(session_id) is None:
            return False
        self._registry.evict(session_id)
        return True

    # -- the session API ---------------------------------------------------------------

    async def create_session(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        budget: int,
        selector: str = "greedy_prune_pre",
    ) -> SessionCreated:
        """Register a session and attach it to a shared evaluator pool."""
        self._ensure_open()
        self._ensure_housekeeper()
        while self._registry.at_capacity():
            victim = self._registry.lru_candidate()
            if victim is None or not await self._evict_session(victim):
                raise SessionOverloadedError(
                    f"the service is at max_sessions="
                    f"{self._registry.max_sessions} and no idle session "
                    "could be evicted; retry later"
                )
        record = self._registry.create(distribution, channel, budget, selector)
        self._workers[record.session_id] = _SessionWorker(
            self, record, self._max_pending
        )
        self._metrics.sessions_created += 1
        return SessionCreated(
            session_id=record.session_id,
            num_facts=record.session.num_facts,
            support_size=distribution.support_size,
            budget=budget,
            selector=selector,
        )

    async def post_answers(
        self,
        session_id: str,
        answers: Union[AnswerSet, Mapping[str, bool]],
        deadline_ms: Optional[int] = None,
    ) -> MergeReport:
        """Fold one round of crowd answers into the session's posterior.

        Charged against the budget (answers are collected work); rejected
        whole when the remaining budget cannot cover the batch.  A
        ``deadline_ms`` is enforced only *before* the merge is charged and
        started — a queued merge whose deadline lapses fails retry-safe with
        :class:`DeadlineExceededError`; a merge that began is never aborted.
        """
        if not isinstance(answers, AnswerSet):
            answers = decode_answers(answers)
        deadline = _deadline_from_ms(deadline_ms)
        worker = self._worker(session_id)
        return await worker.submit("merge", answers, deadline)

    async def select_next(
        self, session_id: str, batch: int = 1, deadline_ms: Optional[int] = None
    ) -> SelectionReply:
        """The next task set to publish, at most ``batch`` tasks.

        Idempotent between merges: repeated calls at one posterior
        generation are served from the selection cache.  ``deadline_ms``
        bounds queue wait plus the scan itself; an over-deadline scan fails
        retry-safe (the selection is read-only and its result is discarded
        without touching the cache).
        """
        if batch < 1:
            raise ValidationFailedError(f"batch must be at least 1, got {batch}")
        deadline = _deadline_from_ms(deadline_ms)
        worker = self._worker(session_id)
        return await worker.submit("select", batch, deadline)

    async def get_posterior(
        self, session_id: str, deadline_ms: Optional[int] = None
    ) -> PosteriorView:
        """The session's current posterior, cached per generation."""
        deadline = _deadline_from_ms(deadline_ms)
        worker = self._worker(session_id)
        return await worker.submit("posterior", None, deadline)

    async def close_session(self, session_id: str) -> SessionClosed:
        """Drain the session's queue, then evict it and free its pool slot."""
        worker = self._worker(session_id)
        await worker.stop()
        self._workers.pop(session_id, None)
        record = self._registry.remove(session_id)
        self._metrics.sessions_closed += 1
        return SessionClosed(
            session_id=session_id,
            rounds_merged=record.session.rounds_merged,
            budget_spent=record.spent,
        )

    def metrics(self) -> Dict[str, Any]:
        """The metrics-endpoint payload, shared-pool utilisation included."""
        durability = None
        if self._registry.durable:
            durability = {
                **self._registry.counters,
                "stored_sessions": len(self._registry.stored_ids()),
                "max_sessions": self._registry.max_sessions,
                "idle_ttl_s": self._registry.idle_ttl_s,
            }
        return self._metrics.snapshot(
            pools=self._group.utilisation(),
            recovery=self._group.recovery_counters(),
            durability=durability,
        )

    # -- request execution -------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("the refinement service is shut down")

    def _worker(self, session_id: str) -> _SessionWorker:
        self._ensure_open()
        # Raises UnknownSessionError for sessions that never existed; revives
        # evicted/restarted sessions from their disk snapshot.
        record = self._registry.get(session_id)
        worker = self._workers.get(session_id)
        if worker is None:
            # No drainer for a live record: the session was just revived from
            # disk (eviction pops the worker with no awaits between the pop
            # and the registry removal, so a *closing* session can never be
            # observed in this state).  Build it a fresh drainer.
            self._ensure_housekeeper()
            worker = _SessionWorker(self, record, self._max_pending)
            self._workers[session_id] = worker
        return worker

    def _validate_answers(self, record: SessionRecord, answers: AnswerSet) -> None:
        known = set(record.session.fact_ids)
        unknown = [fact_id for fact_id in answers.fact_ids if fact_id not in known]
        if unknown:
            raise ValidationFailedError(
                f"session {record.session_id} has no facts {unknown}"
            )

    async def _run_merge_batch(
        self, record: SessionRecord, jobs: List[_Job]
    ) -> None:
        """Validate, charge and merge a batch of queued answer sets.

        Validation and budget charging stay per request (a bad tenant batch
        fails alone); the accepted merges execute back to back in a single
        executor hop, which is the batching that keeps merge throughput flat
        under chatty tenants.
        """
        accepted: List[_Job] = []
        for job in jobs:
            if job.expired():
                # Deadline enforcement in the drain loop: the merge spent its
                # whole budget queued, nothing was validated or charged —
                # retry-safe by construction.
                self._metrics.deadline_hits += 1
                if not job.future.done():
                    job.future.set_exception(
                        DeadlineExceededError(
                            "merge deadline expired while queued; the answers "
                            "were not charged or merged — safe to retry"
                        )
                    )
                continue
            try:
                self._validate_answers(record, job.payload)
                record.charge(len(job.payload))
                accepted.append(job)
            except Exception as error:
                self._metrics.errors += 1
                if not isinstance(error, ServiceError):
                    error = ServiceError(f"merge rejected: {error}")
                if not job.future.done():
                    job.future.set_exception(error)
        if not accepted:
            return

        session = record.session
        completed: List[MergeReport] = []

        def merge_all() -> None:
            # One merge per step with progress recorded after each, so a
            # failure partway through the batch tells the caller exactly
            # which merges applied, which job failed, and which never ran.
            try:
                for job in accepted:
                    faults.fire("merge")
                    session.merge(job.payload)
                    completed.append(
                        MergeReport(
                            session_id=record.session_id,
                            rounds_merged=session.rounds_merged,
                            answers_merged=len(job.payload),
                            budget_remaining=record.remaining,
                            utility=session.utility(),
                        )
                    )
            finally:
                # Snapshot the post-merge state (debounced) while still on
                # the executor thread — durability I/O never blocks the
                # event loop, and a partly-failed batch snapshots whatever
                # actually merged.
                if completed:
                    self._registry.note_merged(record)

        started = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, merge_all
            )
        except Exception as error:
            failure = error
        elapsed = time.perf_counter() - started

        record.invalidate_caches()
        done = len(completed)
        if done:
            self._metrics.merge_batches += 1
        for job, report in zip(accepted, completed):
            # These merges applied (before any failure): their posterior
            # updates are in the session for good, so answer them normally.
            self._metrics.merges += 1
            self._metrics.answers_merged += report.answers_merged
            self._metrics.merge_latency.record(elapsed / done)
            if not job.future.done():
                job.future.set_result(report)
        if failure is None:
            return

        # The job at index ``done`` raised mid-merge: its budget stays
        # charged (the session state is indeterminate for it).  The jobs
        # behind it never ran — refund their charge so a client retry cannot
        # double-merge, and fail them with a retry-safe error.
        self._metrics.errors += len(accepted) - done
        failed_job = accepted[done]
        if not failed_job.future.done():
            failed_job.future.set_exception(ServiceError(f"merge failed: {failure}"))
        for job in accepted[done + 1:]:
            record.spent -= len(job.payload)
            if not job.future.done():
                job.future.set_exception(
                    MergeAbortedError(
                        "merge aborted: an earlier merge in the batch failed "
                        f"({failure}); these answers were not merged and "
                        "their budget charge was refunded — safe to retry"
                    )
                )

    async def _run_job(self, record: SessionRecord, job: _Job) -> None:
        try:
            if job.expired():
                # The job spent its whole deadline queued behind other work;
                # nothing has run — retry-safe.
                self._metrics.deadline_hits += 1
                raise DeadlineExceededError(
                    f"{job.kind} deadline expired while queued — safe to retry"
                )
            if job.kind == "select":
                result: Any = await self._run_select(record, job.payload, job)
            elif job.kind == "posterior":
                result = await self._run_posterior(record, job)
            else:  # pragma: no cover - defensive: unknown kinds cannot be queued
                raise ServiceError(f"unknown request kind {job.kind!r}")
        except Exception as error:
            # Anything the core runtime can throw — SelectionError, a
            # crashed pool worker, OSError — must surface on *this job's*
            # future as a typed ServiceError; letting it propagate would
            # kill the drain task and hang every client of this session.
            self._metrics.errors += 1
            if not isinstance(error, ServiceError):
                error = ServiceError(f"{job.kind} failed: {error}")
            if not job.future.done():
                job.future.set_exception(error)
            return
        if not job.future.done():
            job.future.set_result(result)

    async def _hop(self, call, job: Optional[_Job], kind: str):
        """Run ``call`` on the executor, bounded by the job's deadline.

        Only used for *read-only* work (selection scans, posterior builds):
        on timeout the executor thread finishes on its own and its result is
        discarded — no cache is written, no session state has changed, so the
        raised :class:`DeadlineExceededError` is honestly retry-safe.
        """
        loop = asyncio.get_running_loop()
        remaining = job.remaining() if job is not None else None
        future = loop.run_in_executor(self._executor, call)
        if remaining is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), remaining)
        except asyncio.TimeoutError:
            # The abandoned computation still finishes on its thread; retrieve
            # its eventual outcome so a late failure is not logged as an
            # unretrieved exception.
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            self._metrics.deadline_hits += 1
            raise DeadlineExceededError(
                f"{kind} deadline expired mid-computation; the result was "
                "discarded without updating any session state — safe to retry"
            ) from None

    async def _run_select(
        self, record: SessionRecord, batch: int, job: Optional[_Job] = None
    ) -> SelectionReply:
        if record.remaining <= 0:
            raise BudgetExhaustedError(
                f"session {record.session_id} has exhausted its budget of "
                f"{record.budget} tasks"
            )
        k = min(batch, record.remaining, record.session.num_facts)
        key = (record.generation(), k)
        cached = record.selection_cache.get(key)
        if cached is not None:
            self._metrics.selections += 1
            self._metrics.selection_cache_hits += 1
            return replace(cached, cached=True, budget_remaining=record.remaining)

        session, selector = record.session, record.selector

        def scan():
            faults.fire("select")
            return selector.select_with_session(session, k)

        started = time.perf_counter()
        selection = await self._hop(scan, job, "select")
        self._metrics.selection_latency.record(time.perf_counter() - started)
        self._metrics.selections += 1
        reply = SelectionReply(
            session_id=record.session_id,
            task_ids=tuple(selection.task_ids),
            objective=selection.objective,
            budget_remaining=record.remaining,
            cached=False,
        )
        record.selection_cache[key] = reply
        return reply

    async def _run_posterior(
        self, record: SessionRecord, job: Optional[_Job] = None
    ) -> PosteriorView:
        key = record.generation()
        cached = record.posterior_cache.get(key)
        if cached is not None:
            self._metrics.posterior_cache_hits += 1
            return cached

        session = record.session

        def build() -> PosteriorView:
            posterior = session.distribution
            return PosteriorView(
                session_id=record.session_id,
                fact_ids=session.fact_ids,
                support=tuple(posterior.items()),
                marginals=session.marginals(),
                utility=session.utility(),
                rounds_merged=session.rounds_merged,
            )

        view = await self._hop(build, job, "posterior")
        record.posterior_cache[key] = view
        return view
