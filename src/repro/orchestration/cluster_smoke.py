"""End-to-end smoke test of the lease coordinator (``make cluster-smoke``).

Runs the same sweep twice: once undisturbed through
``run_checkpointed_experiment`` (the coordinator with one local worker),
once through ``run_cluster_experiment`` with two forked loopback workers —
one of which is SIGKILLed mid-lease by a watcher thread.  Asserts the
disturbed run's ``curve.jsonl`` is byte-identical to the undisturbed one,
that the kill was detected and the lease fenced, and that no worker
processes leaked (``multiprocessing.active_children()`` is empty).  Exits
non-zero on any failure, so it slots straight into CI.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems
from repro.evaluation.experiment import ExperimentConfig
from repro.fusion import ModifiedCRH
from repro.orchestration import (
    ClusterConfig,
    OrchestratorConfig,
    run_checkpointed_experiment,
    run_cluster_experiment,
)
from repro.orchestration.journal import read_records
from repro.orchestration.orchestrator import CURVE_NAME, JOURNAL_NAME
from repro.testing import faults
from repro.testing.faults import FaultPlan


def _problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=6, num_sources=10, max_sources_per_book=8, seed=3)
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


def _assassin(journal_path: Path, killed: dict) -> None:
    """SIGKILL one local worker once both hold a lease (so it dies mid-lease)."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        grants = set()
        if journal_path.exists():
            grants = {
                record["worker"]
                for record in read_records(str(journal_path))
                if record["type"] == "lease_granted"
            }
        children = multiprocessing.active_children()
        if len(grants) >= 2 and children:
            victim = children[0]
            killed["pid"] = victim.pid
            os.kill(victim.pid, signal.SIGKILL)
            return
        time.sleep(0.02)


def main() -> int:
    problems = _problems()
    config = ExperimentConfig(
        selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11
    )
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as scratch:
        single_dir = os.path.join(scratch, "single")
        report = run_checkpointed_experiment(
            problems, config, OrchestratorConfig(run_dir=single_dir, shards=1)
        )
        print(f"undisturbed sweep: {report.completed}/{len(problems)} entities")

        cluster_dir = os.path.join(scratch, "cluster")
        cluster = ClusterConfig(
            run_dir=cluster_dir,
            lease_ttl_s=6.0,
            heartbeat_s=0.3,
            lease_entities=3,
            max_attempts=5,
            local_workers=2,
        )
        # Stretch each entity so the kill reliably lands mid-lease.
        faults.install(FaultPlan(delay_entity_seconds=0.3))
        killed: dict = {}
        watcher = threading.Thread(
            target=_assassin, args=(Path(cluster_dir) / JOURNAL_NAME, killed),
            daemon=True,
        )
        watcher.start()
        try:
            cluster_report = run_cluster_experiment(problems, config, cluster)
        finally:
            faults.uninstall()
        watcher.join(timeout=5.0)

        if not killed:
            print("FAIL: the watcher never found a leased worker to kill",
                  file=sys.stderr)
            return 1
        print(f"killed worker pid {killed['pid']} mid-lease; "
              f"{cluster_report.stats.leases_expired} lease(s) fenced, "
              f"epoch {cluster_report.stats.epoch}")
        if cluster_report.stats.leases_expired < 1:
            print("FAIL: the kill was never detected as a fenced lease",
                  file=sys.stderr)
            return 1
        if cluster_report.quarantined:
            print(f"FAIL: entities quarantined: {cluster_report.quarantined}",
                  file=sys.stderr)
            return 1

        single_curve = Path(single_dir, CURVE_NAME).read_bytes()
        cluster_curve = Path(cluster_dir, CURVE_NAME).read_bytes()
        if single_curve != cluster_curve:
            print("FAIL: cluster curve is not byte-identical to the "
                  "undisturbed sweep", file=sys.stderr)
            return 1
        print(f"curves byte-identical ({len(single_curve)} bytes)")

    leaked = multiprocessing.active_children()
    if leaked:
        print(f"FAIL: leaked worker processes: {leaked}", file=sys.stderr)
        return 1
    print("cluster-smoke OK: worker killed mid-lease, range reassigned, "
          "curve byte-identical, no leaked workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
