"""Durable experiment orchestration: checkpointed sharded sweeps with resume.

The paper's pay-as-you-go evaluation sweeps thousands of entity trajectories;
this package makes those sweeps survivable.  A supervised pool of shard
processes runs one entity trajectory at a time (the exact
:func:`~repro.evaluation.experiment.run_entity_trajectory` unit the in-memory
fan-out uses, with the same per-entity seed derivation), and every completed
entity is journalled to an append-only JSON-lines file inside a per-run
directory before the sweep moves on.  Checkpoints are written atomically
(tmp file + fsync + rename), so a SIGKILL at any instruction leaves the run
directory either at the previous durable state or the next — never in
between — and ``crowdfusion experiment --run-dir D --resume`` replays the
journal, skips completed entities, re-enqueues in-flight ones and produces a
curve bit-identical to an undisturbed run.

Layout of a run directory::

    run.json        manifest: config fingerprint, entity ids, budgets
    journal.jsonl   append-only event log (started / entity_done /
                    entity_failed / quarantined); the single-host
                    orchestrator fsyncs it per record
    checkpoint.json atomic progress snapshot (completed / quarantined /
                    pending); the single-host orchestrator rewrites it
                    after every entity
    curve.jsonl     streamed curve points of the finished sweep
    lock            pid lock (stale locks from dead pids are taken over)

A sweep can also span hosts: :func:`run_cluster_experiment` runs the same
run directory through a TCP coordinator that leases contiguous entity
ranges to shard workers (``crowdfusion shard-worker --connect``), fences
dead or zombie leases with monotonically increasing epochs, and adds::

    leases.json           atomic epoch + active-lease snapshot
    journal-<worker>.jsonl  accepted entity_done records, per worker

The coordinator group-commits: each turn of its event loop buffers the
records it produces, then syncs the worker journals, then the coordinator
journal (one ``fsync`` each), rewrites ``checkpoint.json`` only when a
lease completed or an entity was quarantined, rewrites ``leases.json``
when a lease was granted, completed or fenced, and only then sends the
turn's lease grants.  A crash loses at most the
results accepted since the last commit, which resume re-runs.  Worker
journals are merged deterministically on resume and assembly
(:func:`merge_journals`), so a migrated or reassigned sweep's curve stays
bit-identical to an undisturbed single-host run.
"""

from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    atomic_write_json,
    merge_journals,
    read_json,
    read_records,
)
from repro.orchestration.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterStats,
    run_cluster_experiment,
)
from repro.orchestration.orchestrator import (
    OrchestratorConfig,
    OrchestratorReport,
    run_checkpointed_experiment,
)

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "ClusterStats",
    "JournalWriter",
    "OrchestratorConfig",
    "OrchestratorReport",
    "RunLock",
    "atomic_write_json",
    "merge_journals",
    "read_json",
    "read_records",
    "run_checkpointed_experiment",
    "run_cluster_experiment",
]
