"""The crash-safe work-queue orchestrator for entity-trajectory sweeps.

:func:`run_checkpointed_experiment` shards entity trajectories across a
supervised pool of fork-context worker processes and journals every
completed entity — curve-relevant floats, RNG-seed provenance, attempt
counts — to a per-run directory before moving on.  The journal is the
source of truth: resuming replays it, keeps every completed entity verbatim
(JSON floats round-trip exactly), re-enqueues entities that were in flight
when the process died, and hands the merged trajectory set to the same
:func:`~repro.evaluation.experiment.assemble_curve` the in-memory fan-out
uses — so a resumed sweep's curve is bit-identical to an undisturbed one.

Failure policy: a shard that dies or reports an error costs the entity one
attempt; the entity is re-enqueued with linear backoff until
``max_attempts``, after which it is quarantined (recorded with its error,
excluded from the curve, never blocking the sweep).  Dead shards are
replaced immediately.  The shard pool registers with the process-wide
shutdown guard (:func:`repro.core.selection.parallel.register_shutdown_reaper`),
so an orchestrator SIGTERM reaps its shard processes along with any
shared-memory rings instead of leaking them.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing.connection import wait as _wait_connections

from repro.core.selection.parallel import (
    fork_available,
    register_shutdown_reaper,
    unregister_shutdown_reaper,
)
from repro.evaluation.experiment import (
    EntityProblem,
    EntityTrajectory,
    ExperimentConfig,
    ExperimentResult,
    assemble_curve,
)
from repro.evaluation.reporting import CurveStream
from repro.exceptions import OrchestrationError
from repro.orchestration import worker as _worker_module
from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    atomic_write_json,
    read_json,
    read_records,
)

#: Run-directory file names.
MANIFEST_NAME = "run.json"
JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_NAME = "checkpoint.json"
CURVE_NAME = "curve.jsonl"
LOCK_NAME = "lock"

#: Journal schema version (bumped on incompatible record changes).
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class OrchestratorConfig:
    """Durability and supervision knobs of one checkpointed sweep.

    Attributes
    ----------
    run_dir:
        Per-run directory holding manifest, journal, checkpoints and curve.
    shards:
        Worker processes running entity trajectories (clamped to the number
        of pending entities).
    max_attempts:
        Attempts per entity before it is quarantined.
    retry_backoff_s:
        Linear backoff: attempt ``n`` waits ``retry_backoff_s * (n - 1)``
        seconds before re-dispatch.
    resume:
        Allow continuing a run directory that already holds a manifest;
        without it a populated run directory is refused (guarding against
        accidentally mixing two different sweeps).
    """

    run_dir: str
    shards: int = 2
    max_attempts: int = 3
    retry_backoff_s: float = 0.0
    resume: bool = False

    def __post_init__(self) -> None:
        if not self.run_dir:
            raise OrchestrationError("run_dir must be a non-empty path")
        if self.shards < 1:
            raise OrchestrationError(f"shards must be >= 1, got {self.shards}")
        if self.max_attempts < 1:
            raise OrchestrationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff_s < 0:
            raise OrchestrationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )


@dataclass
class OrchestratorReport:
    """Outcome of one :func:`run_checkpointed_experiment` invocation."""

    result: ExperimentResult
    run_dir: str
    completed: int
    resumed: int
    quarantined: Tuple[Tuple[str, str], ...] = ()

    @property
    def quarantined_entities(self) -> List[str]:
        return [entity for entity, _ in self.quarantined]


def _fingerprint(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Mapping[str, int],
) -> Dict[str, Any]:
    """Everything that determines the sweep's trajectories, JSON-ready.

    Two invocations with equal fingerprints produce bit-identical
    trajectories, so resume refuses a mismatch rather than silently mixing
    two different sweeps in one journal.
    """
    runtime = config.runtime_options
    return {
        "journal_version": JOURNAL_VERSION,
        "entities": [problem.entity for problem in problems],
        "budget_overrides": {k: int(v) for k, v in sorted(budget_overrides.items())},
        "selector": config.selector,
        "k": config.k,
        "budget_per_entity": config.budget_per_entity,
        "worker_accuracy": config.worker_accuracy,
        "assumed_accuracy": config.assumed_accuracy,
        "answers_per_task": config.answers_per_task,
        "use_difficulties": config.use_difficulties,
        "seed": config.seed,
        "crowd_model": config.crowd_model,
        "calibration_facts": config.calibration_facts,
        "calibration_repetitions": config.calibration_repetitions,
        "recalibrate": runtime.recalibrate,
    }


def check_serial_runtime(config: ExperimentConfig) -> None:
    """Refuse the parallel settings a durable sweep would silently ignore.

    Durable sweeps run each entity serially inside a shard process:
    orchestrator shards and cluster local workers are daemonic, so they
    cannot fork a scan pool, and cluster workers run a heartbeat thread,
    which makes forking unsafe.
    """
    runtime = config.runtime_options
    for name in ("workers", "parallel_entities"):
        value = getattr(runtime, name)
        if value is not None:
            raise OrchestrationError(
                "durable sweeps run every entity serially inside a shard "
                f"process and cannot honour {name}={value}; scale out with "
                "shards or cluster workers instead"
            )


def check_manifest(
    run_dir: str, fingerprint: Dict[str, Any], resume: bool
) -> None:
    """Verify (or create) the run manifest; refuse mixing two sweeps.

    Shared by the single-host orchestrator and the cluster coordinator —
    both must refuse to resume a directory created for a different sweep.
    """
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    existing = read_json(manifest_path)
    if existing is not None:
        if not resume:
            raise OrchestrationError(
                f"run directory {run_dir} already holds a run; pass "
                "resume=True (--resume) to continue it"
            )
        if existing != fingerprint:
            differing = sorted(
                key
                for key in set(existing) | set(fingerprint)
                if key not in existing
                or key not in fingerprint
                or existing[key] != fingerprint[key]
            )
            raise OrchestrationError(
                f"run directory {run_dir} was created for a different "
                "sweep (manifest fingerprint mismatch; differs in: "
                f"{', '.join(differing)}); refusing to mix"
            )
    else:
        atomic_write_json(manifest_path, fingerprint)


def entity_done_record(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    index: int,
    attempt: int,
    payload: Dict[str, Any],
) -> Dict[str, Any]:
    """The journal record of one completed entity, RNG provenance included."""
    return {
        "type": "entity_done",
        "index": index,
        "entity": problems[index].entity,
        "attempt": attempt,
        "seeds": {
            "worker_seed": config.seed * 7919 + index,
            "selector_seed": (
                config.seed * 104729 + index
                if config.selector in ("random", "Random")
                else None
            ),
        },
        "trajectory": payload,
    }


def assemble_result(
    state: "_RunState",
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    run_dir: str,
    stream: Optional[CurveStream],
) -> Tuple[ExperimentResult, Tuple[Tuple[str, str], ...]]:
    """Assemble the curve from every completed entity and stream it to disk.

    The single code path that turns a set of journalled trajectories into
    ``curve.jsonl`` — single-host sweeps, resumed sweeps and merged
    multi-host sweeps all converge here, which is what makes the
    bit-identity guarantee assertable on the curve file.
    """
    trajectories: List[EntityTrajectory] = []
    gold: Dict[str, bool] = {}
    for index in sorted(state.completed):
        record = state.completed[index]
        trajectories.append(
            _worker_module.trajectory_from_payload(record["trajectory"])
        )
        gold.update(problems[index].gold)
    if not trajectories:
        raise OrchestrationError(
            "every entity was quarantined; no curve can be assembled "
            f"(see {os.path.join(run_dir, JOURNAL_NAME)})"
        )
    result = ExperimentResult(config=config)
    curve_path = os.path.join(run_dir, CURVE_NAME)
    if os.path.exists(curve_path):
        os.unlink(curve_path)
    with JournalWriter(curve_path) as curve_journal:
        for position, point in enumerate(assemble_curve(trajectories, gold)):
            result.points.append(point)
            curve_journal.append(
                {
                    "point": position,
                    "cost": point.cost,
                    "utility": point.utility,
                    "f1": point.f1,
                    "precision": point.precision,
                    "recall": point.recall,
                    "accuracy": point.accuracy,
                }
            )
            if stream is not None:
                stream.emit(point)
    quarantined = tuple(
        (record["entity"], record["error"])
        for _, record in sorted(state.quarantined.items())
    )
    return result, quarantined


@dataclass
class _Shard:
    """One supervised worker process and its command pipe."""

    process: multiprocessing.process.BaseProcess
    connection: Any
    current: Optional[Tuple[int, int]] = None  # (entity index, attempt)

    @property
    def busy(self) -> bool:
        return self.current is not None


class _ShardPool:
    """Forks, supervises and reaps the shard processes of one sweep."""

    def __init__(self, size: int) -> None:
        self._context = multiprocessing.get_context("fork")
        self.shards: List[_Shard] = []
        for _ in range(size):
            self.shards.append(self._fork())

    def _fork(self) -> _Shard:
        parent_end, child_end = self._context.Pipe()
        # The child inherits the orchestrator's end of its own pipe and of
        # every sibling's; it closes them, or an orchestrator death would
        # never reach it as EOF and it would wait for commands forever.
        inherited = [parent_end] + [shard.connection for shard in self.shards]
        process = self._context.Process(
            target=_worker_module.shard_main,
            args=(child_end, inherited),
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Shard(process=process, connection=parent_end)

    def replace(self, shard: _Shard) -> _Shard:
        """Reap a dead shard and fork its replacement in place."""
        try:
            shard.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        shard.process.join(timeout=1.0)
        replacement = self._fork()
        self.shards[self.shards.index(shard)] = replacement
        return replacement

    def idle(self) -> List[_Shard]:
        return [shard for shard in self.shards if not shard.busy]

    def busy(self) -> List[_Shard]:
        return [shard for shard in self.shards if shard.busy]

    def shutdown(self) -> None:
        """Graceful stop: send the stop token, join, escalate if needed."""
        for shard in self.shards:
            try:
                shard.connection.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for shard in self.shards:
            shard.process.join(timeout=2.0)
        self.reap_on_shutdown()

    def reap_on_shutdown(self) -> None:
        """Hard stop, safe to call from atexit/SIGTERM: terminate then kill."""
        for shard in self.shards:
            if shard.process.is_alive():
                shard.process.terminate()
        for shard in self.shards:
            if shard.process.is_alive():
                shard.process.join(timeout=1.0)
            if shard.process.is_alive():  # pragma: no cover - stuck in syscall
                shard.process.kill()
                shard.process.join(timeout=1.0)
            try:
                shard.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass


class _RunState:
    """Journal-backed progress of one sweep (replayed on resume)."""

    def __init__(self, problems: Sequence[EntityProblem]) -> None:
        self.problems = problems
        self.completed: Dict[int, Dict[str, Any]] = {}
        self.quarantined: Dict[int, Dict[str, Any]] = {}
        self.attempts: Dict[int, int] = {}

    def replay(self, records: Sequence[Dict[str, Any]]) -> None:
        for record in records:
            kind = record.get("type")
            index = record.get("index")
            if kind == "entity_done":
                self.completed[index] = record
            elif kind == "entity_failed":
                self.attempts[index] = max(
                    self.attempts.get(index, 0), int(record.get("attempt", 1))
                )
            elif kind == "quarantined":
                self.quarantined[index] = record
            # "started" records mark in-flight work; an orchestrator crash
            # mid-entity is not the entity's fault, so they do not count
            # against max_attempts — the entity is simply pending again.

    def pending_indices(self) -> List[int]:
        return [
            index
            for index in range(len(self.problems))
            if index not in self.completed and index not in self.quarantined
        ]

    def checkpoint_payload(self, status: str) -> Dict[str, Any]:
        return {
            "status": status,
            "total": len(self.problems),
            "completed": sorted(self.completed),
            "quarantined": sorted(self.quarantined),
            "pending": self.pending_indices(),
        }


def run_checkpointed_experiment(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    orchestrator: OrchestratorConfig,
    budgets: Optional[Mapping[str, int]] = None,
    stream: Optional[CurveStream] = None,
) -> OrchestratorReport:
    """Run (or resume) a durable sharded sweep and return its curve.

    The sweep is driven as a work queue: every pending entity index is
    dispatched to the first idle shard, a ``started`` journal record lands
    before the dispatch, and an ``entity_done`` record (with the trajectory
    and its RNG-seed provenance) plus an atomic checkpoint land before the
    next dispatch from the queue.  Killing this process at *any* point and
    calling again with ``resume=True`` therefore loses at most the entities
    that were mid-flight — which are re-run from their per-entity seeds,
    producing the exact floats the lost run would have.
    """
    if not problems:
        raise OrchestrationError("cannot orchestrate an empty problem list")
    check_serial_runtime(config)
    if not fork_available():
        raise OrchestrationError(
            "the durable orchestrator shards work via the 'fork' start "
            "method, which this platform does not provide"
        )
    budget_overrides = dict(budgets or {})
    run_dir = orchestrator.run_dir
    os.makedirs(run_dir, exist_ok=True)

    with RunLock(os.path.join(run_dir, LOCK_NAME)):
        fingerprint = _fingerprint(problems, config, budget_overrides)
        check_manifest(run_dir, fingerprint, orchestrator.resume)

        state = _RunState(problems)
        state.replay(read_records(os.path.join(run_dir, JOURNAL_NAME)))
        resumed = len(state.completed)
        pending = state.pending_indices()

        with JournalWriter(os.path.join(run_dir, JOURNAL_NAME)) as journal:
            checkpoint_path = os.path.join(run_dir, CHECKPOINT_NAME)
            if pending:
                _run_pending(
                    pending, problems, config, budget_overrides,
                    orchestrator, state, journal, checkpoint_path,
                )
            atomic_write_json(checkpoint_path, state.checkpoint_payload("complete"))

        # Assemble the curve from every completed entity, in index order —
        # the same code path as the in-memory fan-out.  Quarantined entities
        # are excluded (their gold too, so scores stay comparable).
        result, quarantined = assemble_result(
            state, problems, config, run_dir, stream
        )
        return OrchestratorReport(
            result=result,
            run_dir=run_dir,
            completed=len(state.completed),
            resumed=resumed,
            quarantined=quarantined,
        )


def _run_pending(
    pending: Sequence[int],
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Dict[str, int],
    orchestrator: OrchestratorConfig,
    state: _RunState,
    journal: JournalWriter,
    checkpoint_path: str,
) -> None:
    """Drive the shard pool until every pending entity is done or quarantined."""
    #: Work items: (entity index, attempt number, earliest dispatch time).
    queue: Deque[Tuple[int, int, float]] = deque(
        (index, state.attempts.get(index, 0) + 1, 0.0) for index in pending
    )

    def handle_failure(index: int, attempt: int, message: str) -> None:
        entity = problems[index].entity
        journal.append(
            {
                "type": "entity_failed",
                "index": index,
                "entity": entity,
                "attempt": attempt,
                "error": message,
            }
        )
        state.attempts[index] = max(state.attempts.get(index, 0), attempt)
        if attempt >= orchestrator.max_attempts:
            record = {
                "type": "quarantined",
                "index": index,
                "entity": entity,
                "attempts": attempt,
                "error": message,
            }
            journal.append(record)
            state.quarantined[index] = record
            atomic_write_json(checkpoint_path, state.checkpoint_payload("running"))
        else:
            not_before = time.monotonic() + orchestrator.retry_backoff_s * attempt
            queue.append((index, attempt + 1, not_before))

    def handle_done(index: int, attempt: int, payload: Dict[str, Any]) -> None:
        record = entity_done_record(problems, config, index, attempt, payload)
        journal.append(record)
        state.completed[index] = record
        atomic_write_json(checkpoint_path, state.checkpoint_payload("running"))

    pool_size = max(1, min(orchestrator.shards, len(pending)))
    _worker_module._SHARD_CONTEXT = (list(problems), config, budget_overrides)
    pool = _ShardPool(pool_size)
    register_shutdown_reaper(pool)
    try:
        atomic_write_json(checkpoint_path, state.checkpoint_payload("running"))
        while queue or pool.busy():
            now = time.monotonic()
            # Dispatch eligible work to idle shards.
            for shard in pool.idle():
                item = _pop_eligible(queue, now)
                if item is None:
                    break
                index, attempt, _ = item
                journal.append(
                    {
                        "type": "started",
                        "index": index,
                        "entity": problems[index].entity,
                        "attempt": attempt,
                    }
                )
                shard.connection.send(index)
                shard.current = (index, attempt)

            busy = pool.busy()
            if not busy:
                if queue:
                    # Everything eligible is in retry backoff: sleep to the
                    # earliest dispatch time.
                    wake = min(not_before for _, _, not_before in queue)
                    time.sleep(max(0.0, min(wake - time.monotonic(), 0.5)))
                continue

            ready = _wait_connections(
                [shard.connection for shard in busy], timeout=0.2
            )
            for connection in ready:
                shard = next(s for s in busy if s.connection is connection)
                index, attempt = shard.current
                try:
                    reply = connection.recv()
                except (EOFError, OSError):
                    # The shard died mid-entity (SIGKILL, fault injection):
                    # charge the attempt and fork a replacement.  Reap it
                    # first so the reported exitcode is the real one, not
                    # the None of a not-yet-waited-on corpse.
                    shard.process.join(timeout=1.0)
                    handle_failure(
                        index,
                        attempt,
                        f"shard died (exitcode {shard.process.exitcode})",
                    )
                    pool.replace(shard)
                    continue
                shard.current = None
                kind, reply_index, body = reply
                if kind == "ok":
                    handle_done(reply_index, attempt, body)
                else:
                    handle_failure(reply_index, attempt, str(body))

            # A shard can die without its pipe ever becoming ready (e.g.
            # killed before the handshake): sweep for silent deaths too.
            for shard in pool.busy():
                if not shard.process.is_alive():
                    index, attempt = shard.current
                    shard.process.join(timeout=1.0)
                    handle_failure(
                        index,
                        attempt,
                        f"shard died (exitcode {shard.process.exitcode})",
                    )
                    pool.replace(shard)
    finally:
        unregister_shutdown_reaper(pool)
        pool.shutdown()
        _worker_module._SHARD_CONTEXT = None


def _pop_eligible(
    queue: "Deque[Tuple[int, int, float]]", now: float
) -> Optional[Tuple[int, int, float]]:
    """Pop the first queue item whose backoff deadline has passed."""
    for _ in range(len(queue)):
        item = queue.popleft()
        if item[2] <= now:
            return item
        queue.append(item)
    return None
