"""The asyncio multi-tenant refinement service.

:class:`RefinementService` exposes the paper's interactive loop — post crowd
answers, ask "which tasks next?", repeat under a running budget — as
addressable session resources on top of the persistent
:class:`~repro.core.selection.session.RefinementSession` runtime:

* ``create_session(distribution, channel, budget)`` registers a session;
* ``post_answers(session_id, answers)`` folds a round of crowd answers into
  the posterior (the existing in-place Bayesian ``reweight``);
* ``get_posterior(session_id)`` / ``select_next(session_id, batch)`` read
  the current state, served from generation-keyed caches whenever nothing
  merged in between;
* ``metrics()`` reports live sessions, merge throughput and selection
  latency percentiles.

Concurrency model: every session owns a *bounded* job queue drained by one
asyncio task, one job per request, so one tenant's requests execute strictly
in submission order (the property that makes a service trajectory
bit-identical to the same answer stream replayed through a standalone
session).  A full queue rejects new work immediately with a 429-style
:class:`~repro.service.api.SessionOverloadedError` — fail-fast backpressure
instead of unbounded backlog.

Where a job computes depends on how much work it is
(:meth:`RefinementService._runs_inline`).  A job that costs about what
handing it to a thread and back costs selects, merges or builds a posterior
inline on the event loop.  Every other job hops to a small thread pool, so a
long computation never holds up the other tenants' requests.  Snapshot
writes of a durable service always run on the thread pool, so no fsync
stalls the loop.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.selection import ParallelSelectorMixin
from repro.service.api import (
    BudgetExhaustedError,
    DeadlineExceededError,
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
from repro.service.metrics import ServiceMetrics
from repro.service.registry import SessionRecord, SessionRegistry
from repro.testing import faults

_LOGGER = logging.getLogger("repro.service")

#: Default bound of a session's pending-request queue.
DEFAULT_MAX_PENDING = 8

#: The most work a job may do inline on the event loop, in support cells as
#: ``RefinementService._runs_inline`` counts them; a job of this size takes
#: about as long as the hop to an executor thread and back.  A paper-size
#: book (at most 2048 rows × 11 facts) merges, builds its posterior and
#: selects up to 3 tasks inline.
_INLINE_WORK = 1 << 16

#: A session wider than one ``int64`` mask column always hops: past it the
#: per-fact costs outgrow the support (a 32-row × 2000-fact posterior build
#: takes 12 ms).
_INLINE_MAX_FACTS = 63


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

    kind: str  # "merge" | "select" | "posterior" | "snapshot" | "evict" | "stop"
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
        while True:
            job = await self.queue.get()
            if job.kind == "stop":
                break
            if job.kind == "evict":
                if await self._service._run_eviction(self, job):
                    break
            else:
                await self._service._run_job(self.record, job)


class RefinementService:
    """Async multi-tenant refinement sessions, one job per request.

    One event loop serves every tenant.  A small job runs on it directly; a
    larger one computes on an executor thread while the loop serves the
    other tenants (:meth:`_runs_inline`).  Every scan is the serial scan.

    Parameters
    ----------
    max_pending:
        Per-session queue bound; the 429 threshold.
    executor_workers:
        Threads for the jobs that leave the event loop: every scan, merge
        and posterior build too large to run inline, and every snapshot
        write.  A few threads let distinct tenants' large jobs overlap
        without unbounded thread growth.
    state_dir:
        Directory for durable session snapshots.  With it set, every
        session's posterior/channel/budget state is snapshotted (at
        creation, debounced after merges, unconditionally on eviction and
        shutdown) and a restarted service transparently revives sessions on
        their next request — ``get_posterior`` after a restart matches the
        pre-restart posterior to within float-serialisation exactness.
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
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        executor_workers: int = 5,
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
        self._registry = SessionRegistry(
            snapshot_dir=state_dir,
            max_sessions=max_sessions,
            idle_ttl_s=idle_ttl_s,
            snapshot_debounce_s=snapshot_debounce_s,
        )
        self._metrics = ServiceMetrics(latency_window)
        self._max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="refinement"
        )
        self._workers: Dict[str, _SessionWorker] = {}
        #: Revives in flight, by session id: a second request for the id
        #: waits for the first one's event instead of making room again.
        self._revivals: Dict[str, asyncio.Event] = {}
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
        """Drain every session, flush their snapshots, stop the executor."""
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
        """Evict one idle session to disk; refuses sessions with queued work.

        The session's own drainer writes the snapshot and retires the session
        (:meth:`_run_eviction`), so the eviction never overlaps the session's
        jobs and its queue stays open while the snapshot is written.
        """
        record = self._registry.peek(session_id)
        if record is None:
            return False
        worker = self._drainer(record)
        if worker.closed or not worker.queue.empty():
            return False
        return await worker.submit("evict", None)

    async def _run_eviction(self, worker: _SessionWorker, job: _Job) -> bool:
        """The drainer's eviction job: store the session, then retire it if idle.

        A request that queued while the snapshot was written keeps the
        session resident, and the drainer serves it as usual.  Otherwise the
        drainer closes and the session leaves the registry in the same loop
        turn, so no request ever meets a closing drainer: a later one revives
        the session from disk.
        """
        try:
            await self._write_snapshot(worker.record)
        except Exception as error:
            if not job.future.done():
                job.future.set_exception(error)
            return False
        retired = not worker.closed and worker.queue.empty()
        if retired:
            worker.closed = True
            self._workers.pop(worker.record.session_id, None)
            self._registry.evict(worker.record.session_id)
        if not job.future.done():
            job.future.set_result(retired)
        return retired

    # -- the session API ---------------------------------------------------------------

    async def create_session(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        budget: int,
        selector: str = "greedy_prune_pre",
    ) -> SessionCreated:
        """Register a session; with ``state_dir``, reply once it is on disk."""
        self._ensure_open()
        self._ensure_housekeeper()
        await self._make_room()
        record = self._registry.create(distribution, channel, budget, selector)
        worker = self._drainer(record)
        if self._registry.durable:
            # Durable from birth: a crash before the first merge must not lose
            # the session's existence (prior, budget, selector).  A session
            # whose birth snapshot failed leaves again, so no slot is held by
            # an id its client never learned.
            try:
                await worker.submit("snapshot", None)
            except ServiceError:
                await worker.stop()
                self._workers.pop(record.session_id, None)
                self._registry.remove(record.session_id)
                raise
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
        worker = await self._worker(session_id)
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
        worker = await self._worker(session_id)
        return await worker.submit("select", batch, deadline)

    async def get_posterior(
        self, session_id: str, deadline_ms: Optional[int] = None
    ) -> PosteriorView:
        """The session's current posterior, cached per generation."""
        deadline = _deadline_from_ms(deadline_ms)
        worker = await self._worker(session_id)
        return await worker.submit("posterior", None, deadline)

    async def close_session(self, session_id: str) -> SessionClosed:
        """Drain the session's queue, then remove it and delete its snapshot.

        A session stored on disk but not resident is not revived: its ledger
        is read from the snapshot, which is then deleted, so closing it never
        evicts a live session to make room.
        """
        self._ensure_open()
        registry = self._registry
        while registry.peek(session_id) is None:
            revival = self._revivals.get(session_id)
            if revival is None:
                rounds_merged, spent = registry.remove_stored(session_id)
                self._metrics.sessions_closed += 1
                return SessionClosed(
                    session_id=session_id,
                    rounds_merged=rounds_merged,
                    budget_spent=spent,
                )
            # A revive of this id is in flight: close the revived session.
            await revival.wait()
            self._ensure_open()
        worker = self._drainer(registry.get(session_id))
        await worker.stop()
        self._workers.pop(session_id, None)
        record = registry.remove(session_id)
        self._metrics.sessions_closed += 1
        return SessionClosed(
            session_id=session_id,
            rounds_merged=record.session.rounds_merged,
            budget_spent=record.spent,
        )

    def metrics(self) -> Dict[str, Any]:
        """The metrics-endpoint payload."""
        durability = None
        if self._registry.durable:
            durability = {
                **self._registry.counters,
                "stored_sessions": len(self._registry.stored_ids()),
                "max_sessions": self._registry.max_sessions,
                "idle_ttl_s": self._registry.idle_ttl_s,
            }
        return self._metrics.snapshot(durability=durability)

    # -- request execution -------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("the refinement service is shut down")

    async def _worker(self, session_id: str) -> _SessionWorker:
        self._ensure_open()
        registry = self._registry
        if registry.peek(session_id) is None:
            await self._revive(session_id)
        # Raises UnknownSessionError for sessions that never existed.
        return self._drainer(registry.get(session_id))

    async def _revive(self, session_id: str) -> None:
        """Make a stored session resident, one revive per id at a time.

        The snapshot is read and decoded on the executor, so other tenants'
        requests run meanwhile; only the install runs on the loop.  A revive
        adds a resident session, so it then makes room as a create does.  A
        request that finds a revive of its id in flight waits for it and
        then uses the live session; it never makes room a second time.  An
        id with no snapshot returns at once, to get its 404.
        """
        registry = self._registry
        while registry.peek(session_id) is None:
            revival = self._revivals.get(session_id)
            if revival is not None:
                await revival.wait()
                self._ensure_open()
                continue
            if not registry.has_snapshot(session_id):
                return
            revival = self._revivals[session_id] = asyncio.Event()
            try:
                stored = await self._hop(
                    lambda: registry.load_stored(session_id), None, "revive"
                )
                self._ensure_open()
                await self._make_room()
                # No await from the last capacity check to here.
                registry.install(session_id, stored)
            finally:
                del self._revivals[session_id]
                revival.set()

    async def _make_room(self) -> None:
        """Evict LRU idle sessions until one more fits under ``max_sessions``."""
        while self._registry.at_capacity():
            victim = self._registry.lru_candidate()
            if victim is None or not await self._evict_session(victim):
                raise SessionOverloadedError(
                    f"the service is at max_sessions="
                    f"{self._registry.max_sessions} and no idle session "
                    "could be evicted; retry later"
                )
            # The service may have shut down during the eviction.
            self._ensure_open()

    def _drainer(self, record: SessionRecord) -> _SessionWorker:
        """The live record's drainer, built on first use.

        A live record has no drainer when it was just created or revived
        from disk (eviction pops the worker with no awaits between the pop
        and the registry removal, so a *closing* session can never be
        observed in this state).
        """
        worker = self._workers.get(record.session_id)
        if worker is None:
            self._ensure_housekeeper()
            worker = _SessionWorker(self, record, self._max_pending)
            self._workers[record.session_id] = worker
        return worker

    def _validate_answers(self, record: SessionRecord, answers: AnswerSet) -> None:
        known = set(record.session.fact_ids)
        unknown = [fact_id for fact_id in answers.fact_ids if fact_id not in known]
        if unknown:
            raise ValidationFailedError(
                f"session {record.session_id} has no facts {unknown}"
            )

    async def _run_merge(
        self, record: SessionRecord, answers: AnswerSet
    ) -> MergeReport:
        """Validate, charge and merge one answer set.

        A merge that raises keeps its budget charge: the session state is
        indeterminate for it.  A snapshot that falls due is written on the
        executor before the merge is answered.
        """
        self._validate_answers(record, answers)
        record.charge(len(answers))
        session = record.session

        def merge() -> MergeReport:
            faults.fire("merge")
            session.merge(answers)
            return MergeReport(
                session_id=record.session_id,
                rounds_merged=session.rounds_merged,
                answers_merged=len(answers),
                budget_remaining=record.remaining,
                utility=session.utility(),
            )

        started = time.perf_counter()
        try:
            report = await self._execute(record, merge, None, "merge")
        finally:
            # Even a failed merge may have moved the engine.
            record.invalidate_caches()
        self._metrics.merge_latency.record(time.perf_counter() - started)
        self._metrics.merges += 1
        self._metrics.answers_merged += len(answers)
        if self._registry.note_merged(record):
            # A failed write leaves the record dirty for the next snapshot;
            # the merge applied regardless, so its reply stands.
            try:
                await self._write_snapshot(record)
            except Exception:
                self._metrics.errors += 1
                _LOGGER.exception(
                    "snapshot of session %s failed after a merge", record.session_id
                )
        return report

    async def _run_job(self, record: SessionRecord, job: _Job) -> None:
        try:
            if job.expired():
                # The job spent its whole deadline queued behind other work;
                # nothing has run, and a merge was not charged — retry-safe.
                self._metrics.deadline_hits += 1
                raise DeadlineExceededError(
                    f"{job.kind} deadline expired while queued — safe to retry"
                )
            if job.kind == "merge":
                result: Any = await self._run_merge(record, job.payload)
            elif job.kind == "select":
                result = await self._run_select(record, job.payload, job)
            elif job.kind == "posterior":
                result = await self._run_posterior(record, job)
            elif job.kind == "snapshot":
                result = await self._write_snapshot(record)
            else:  # pragma: no cover - defensive: unknown kinds cannot be queued
                raise ServiceError(f"unknown request kind {job.kind!r}")
        except Exception as error:
            # Anything the core runtime can throw — SelectionError, a failed
            # merge, OSError — must surface on *this job's* future as a typed
            # ServiceError; letting it propagate would kill the drain task
            # and hang every client of this session.
            self._metrics.errors += 1
            if not isinstance(error, ServiceError):
                error = ServiceError(f"{job.kind} failed: {error}")
            if not job.future.done():
                job.future.set_exception(error)
            return
        if not job.future.done():
            job.future.set_result(result)

    def _runs_inline(self, record: SessionRecord, kind: str, size: int) -> bool:
        """Whether one job of ``record`` computes on the event loop.

        It does when its work stays below ``_INLINE_WORK`` support cells.  A
        posterior build or a merge touches each of the support's rows × facts
        cells about once.  A select of ``size`` tasks by the engine-backed
        greedy family makes one scan per task: step ``s`` scores the
        ``facts − s`` remaining candidates, each over the support's rows or
        over its answer table of ``2^s`` cells, which the channel transform
        passes over ``s`` times, whichever is larger.  Every other selector
        (an exhaustive or a pure-Python scan) hops, and so does every job of
        a session past ``_INLINE_MAX_FACTS``.
        """
        session = record.session
        facts = session.num_facts
        if facts > _INLINE_MAX_FACTS:
            return False
        rows = len(session.engine.probabilities)
        if kind != "select":
            work = rows * facts
        elif isinstance(record.selector, ParallelSelectorMixin):
            work = sum(
                (facts - step) * max(rows, (step + 1) << step)
                for step in range(size)
            )
        else:
            return False
        return work < _INLINE_WORK

    async def _execute(
        self, record: SessionRecord, call, job: Optional[_Job], kind: str, size: int = 1
    ):
        """Run one job's computation inline when it is small, else :meth:`_hop`.

        ``size`` is a select's ``k`` (see :meth:`_runs_inline`).  An inline
        job checks its deadline only before it starts (in the drainer); a
        hopped one is also bounded mid-computation.
        """
        if self._runs_inline(record, kind, size):
            return call()
        return await self._hop(call, job, kind)

    async def _write_snapshot(self, record: SessionRecord) -> None:
        """Write ``record``'s snapshot on the executor (never on the loop)."""
        await self._hop(lambda: self._registry.snapshot(record), None, "snapshot")

    async def _hop(self, call, job: Optional[_Job], kind: str):
        """Run ``call`` on the executor, bounded by the job's deadline.

        Deadlines are only given for *read-only* work (selection scans,
        posterior builds): on timeout the executor thread finishes on its own
        and its result is discarded — no cache is written, no session state
        has changed, so the raised :class:`DeadlineExceededError` is honestly
        retry-safe.  Merges and snapshot writes hop without one.
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
        selection = await self._execute(record, scan, job, "select", k)
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

        view = await self._execute(record, build, job, "posterior")
        record.posterior_cache[key] = view
        return view
