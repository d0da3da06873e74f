"""The durable run directory, and the single-host entry point into it.

:func:`run_checkpointed_experiment` (CLI ``--run-dir``) runs an
entity-trajectory sweep on the lease coordinator of
:mod:`repro.orchestration.cluster`, with ``shards`` local worker processes
on loopback.  This module holds what every durable sweep shares: the
run-directory layout, the manifest fingerprint that refuses to mix two
sweeps, the journal replay (:class:`_RunState`) and :func:`assemble_result`,
which turns the journalled trajectories into ``curve.jsonl``.  The journals
are the source of truth: resuming replays them, keeps every completed
entity verbatim (JSON floats round-trip exactly), re-runs the rest from
their per-entity seeds, and hands the merged trajectory set to the same
:func:`~repro.evaluation.experiment.assemble_curve` the in-memory fan-out
uses — so a resumed sweep's curve is bit-identical to an undisturbed one.

Failure policy: a worker that dies mid-lease costs the entity it was
running one attempt, and so does an entity that raises; the entity is
re-enqueued with linear backoff until ``max_attempts``, after which it is
quarantined (recorded with its error, excluded from the curve, never
blocking the sweep).  A dead local worker is replaced while work remains.
The worker pool registers with the process-wide shutdown guard
(:func:`repro.core.selection.parallel.register_shutdown_reaper`), so a
SIGTERM reaps the local workers, and a worker whose coordinator died exits
at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.evaluation.experiment import (
    EntityProblem,
    EntityTrajectory,
    ExperimentConfig,
    ExperimentResult,
    assemble_curve,
)
from repro.evaluation.reporting import CurveStream
from repro.exceptions import OrchestrationError
from repro.orchestration.journal import JournalWriter, atomic_write_json, read_json
from repro.orchestration.worker import trajectory_from_payload

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
        Local worker processes the coordinator forks to run entity
        trajectories (clamped to the number of pending entities).
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

    Durable sweeps run each entity serially inside a worker process: local
    workers are daemonic, so they cannot fork a scan pool, and every worker
    runs a heartbeat thread, which makes forking unsafe.
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

    The coordinator calls it for single-host and multi-host sweeps alike:
    a directory created for a different sweep is refused.
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
    ``curve.jsonl`` — fresh, resumed and multi-host sweeps all converge
    here, which is what makes the bit-identity guarantee assertable on the
    curve file.  The curve is synced once, when it is whole: it is derived
    from the journals, so a crash mid-write only means resume rewrites it.
    """
    trajectories: List[EntityTrajectory] = []
    gold: Dict[str, bool] = {}
    for index in sorted(state.completed):
        record = state.completed[index]
        trajectories.append(trajectory_from_payload(record["trajectory"]))
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
            curve_journal.write(
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
            # "started" records (written by the 5.1 shard pool) and lease
            # grants mark in-flight work; a crash mid-entity is not the
            # entity's fault, so they do not count against max_attempts —
            # the entity is simply pending again.

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
    """Run (or resume) a durable sweep on this host and return its curve.

    The sweep runs on the lease coordinator
    (:func:`~repro.orchestration.cluster.run_cluster_experiment`), bound to
    a free loopback port, with ``orchestrator.shards`` forked local workers
    and the coordinator's default lease size.  Every accepted entity is
    group-committed to a worker journal with its trajectory and RNG-seed
    provenance before the turn's next grant leaves.  Killing this process
    at *any* point and calling again with ``resume=True`` therefore loses
    at most the entities that were not yet committed, which are re-run
    from their per-entity seeds to the exact floats the lost run would have
    produced.  A run directory written by the 5.1 shard pool resumes the
    same way: its ``entity_done`` records sit in ``journal.jsonl``.
    """
    # cluster.py imports this module, so this import waits for the call.
    from repro.orchestration.cluster import ClusterConfig, run_cluster_experiment

    report = run_cluster_experiment(
        list(problems),
        config,
        ClusterConfig(
            run_dir=orchestrator.run_dir,
            max_attempts=orchestrator.max_attempts,
            retry_backoff_s=orchestrator.retry_backoff_s,
            resume=orchestrator.resume,
            local_workers=orchestrator.shards,
        ),
        budgets=budgets,
        stream=stream,
    )
    return OrchestratorReport(
        result=report.result,
        run_dir=report.run_dir,
        completed=report.completed,
        resumed=report.resumed,
        quarantined=report.quarantined,
    )
