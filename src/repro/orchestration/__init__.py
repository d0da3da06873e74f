"""Durable experiment orchestration: checkpointed sweeps with resume.

The paper's pay-as-you-go evaluation sweeps thousands of entity trajectories;
this package makes those sweeps survivable.  One executor runs them: the
lease coordinator (:func:`run_cluster_experiment`), which leases contiguous
entity ranges to shard workers over TCP and fences dead or zombie leases
with monotonically increasing epochs.  A single-host sweep
(:func:`run_checkpointed_experiment`, ``crowdfusion experiment --run-dir``)
is that coordinator on loopback with ``shards`` forked local workers; a
multi-host one adds remote workers (``crowdfusion shard-worker --connect``).
Each worker runs one entity trajectory at a time (the exact
:func:`~repro.evaluation.experiment.run_entity_trajectory` unit the
in-memory fan-out uses, with the same per-entity seed derivation), and every
accepted entity is journalled to an append-only JSON-lines file inside a
per-run directory.  Checkpoints are written atomically (tmp file + fsync +
rename), so a SIGKILL at any instruction leaves the run directory either at
the previous durable state or the next — never in between — and
``--resume`` replays the journals, skips completed entities, re-runs the
rest and produces a curve bit-identical to an undisturbed run.

Layout of a run directory::

    run.json                manifest: config fingerprint, entity ids, budgets
    journal.jsonl           coordinator decisions (lease_granted /
                            lease_complete / lease_expired / entity_failed /
                            quarantined / result_rejected /
                            local_worker_exited / ...)
    journal-<worker>.jsonl  accepted entity_done records, per worker
                            (journal-local-N.jsonl for local workers)
    checkpoint.json         atomic progress snapshot (completed /
                            quarantined / pending)
    leases.json             atomic epoch + active-lease snapshot
    curve.jsonl             streamed curve points of the finished sweep
    lock                    pid lock (stale locks from dead pids are taken over)

A run directory written by the 5.1 single-host shard pool holds its
``entity_done`` records in ``journal.jsonl`` and no ``leases.json``; it
resumes the same way.

The coordinator group-commits: each turn of its event loop buffers the
records it produces, then syncs the worker journals, then the coordinator
journal (one ``fsync`` each), rewrites ``checkpoint.json`` only when a
lease completed or an entity was quarantined, rewrites ``leases.json``
when a lease was granted, completed or fenced, and only then sends the
turn's lease grants.  A crash loses at most the
results accepted since the last commit, which resume re-runs.  Worker
journals are merged deterministically on resume and assembly
(:func:`merge_journals`), so a migrated or reassigned sweep's curve stays
bit-identical to an undisturbed run.
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
