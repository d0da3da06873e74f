"""Chaos suite: the lease-fenced cluster under kills, zombies and resumes.

The acceptance triangle of the multi-host orchestrator, asserted from the
outside:

(a) a shard worker SIGKILLed mid-lease is detected (EOF beats the heartbeat
    timeout), its lease is fenced, the one entity in flight charged, the
    range reassigned and the dead worker replaced, and the final curve is
    bit-identical to an undisturbed single-host run;
(b) a zombie worker — alive and computing but silent past lease expiry —
    submits results that are rejected by the fencing epoch and never reach
    a worker journal, with no duplicated ``entity_done`` anywhere;
(c) a coordinator SIGKILLed mid-sweep resumes via ``--resume`` at a higher
    fencing epoch and completes bit-identically to a single-host CLI run —

all with no leaked worker processes or shared memory.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.fusion import ModifiedCRH
from repro.orchestration import ClusterConfig, run_cluster_experiment
from repro.orchestration.cluster import LEASES_NAME, worker_journal_paths
from repro.orchestration.journal import read_json, read_records
from repro.orchestration.orchestrator import JOURNAL_NAME
from repro.testing import faults
from repro.testing.faults import FaultPlan

pytestmark = [pytest.mark.chaos, pytest.mark.parallel]

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: CLI flags describing one deterministic sweep (8 books, 3 rounds each) —
#: identical between the single-host baseline and the cluster runs.
SWEEP_FLAGS = [
    "--books", "8", "--sources", "10", "--seed", "3",
    "--budget", "9", "--k", "3", "--max-facts", "8",
]


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def problems():
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


CONFIG = ExperimentConfig(selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11)


def assert_identical_curves(expected, actual):
    assert len(expected.points) == len(actual.points)
    for theirs, ours in zip(expected.points, actual.points):
        assert theirs == ours  # exact float equality, field by field


def _journal_types(run_dir):
    return [
        record["type"]
        for record in read_records(str(Path(run_dir) / JOURNAL_NAME))
    ]


def _done_indices(run_dir):
    return sorted(
        record["index"]
        for path in worker_journal_paths(str(run_dir))
        for record in read_records(path)
        if record["type"] == "entity_done"
    )


def _assert_no_active_children(timeout=10.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestWorkerKill:
    def test_sigkill_mid_lease_reassigns_bit_identical(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = ClusterConfig(
            run_dir=str(tmp_path / "run"),
            lease_ttl_s=6.0,
            heartbeat_s=0.3,
            lease_entities=3,
            max_attempts=5,
            local_workers=2,
        )
        # Stretch each entity so the kill reliably lands mid-lease.
        faults.install(FaultPlan(delay_entity_seconds=0.3))
        journal_path = Path(cluster.run_dir) / JOURNAL_NAME
        killed = {}

        def assassin():
            # Wait until both workers hold a lease, then SIGKILL either one:
            # whichever dies is mid-lease by construction.
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
                    killed["at"] = time.time()
                    os.kill(victim.pid, signal.SIGKILL)
                    return
                time.sleep(0.02)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        report = run_cluster_experiment(problems, CONFIG, cluster)
        thread.join(timeout=5.0)

        assert killed, "the assassin never found a leased worker to kill"
        # The kernel closed the victim's socket: EOF fenced the lease well
        # before the heartbeat timeout would have.
        assert report.stats.leases_expired >= 1
        assert report.stats.disconnects >= 1
        assert report.quarantined == ()
        assert report.completed == len(problems)
        types = _journal_types(cluster.run_dir)
        assert "lease_expired" in types
        assert types.count("entity_failed") == 1  # only the entity in flight
        assert types.count("local_worker_exited") == 1  # and it was replaced
        assert _done_indices(cluster.run_dir) == list(range(len(problems)))
        assert_identical_curves(serial, report.result)
        _assert_no_active_children()


class TestZombieFencing:
    def test_expired_lease_results_are_rejected_by_epoch(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = ClusterConfig(
            run_dir=str(tmp_path / "run"),
            lease_ttl_s=1.0,
            heartbeat_s=0.25,
            lease_entities=2,
            max_attempts=10,
            local_workers=2,
        )
        # One worker goes zombie: alive and computing, but its heartbeats
        # are suppressed for 3s — longer than the lease TTL — while each
        # entity takes 1.5s, so its lease expires mid-range and every result
        # it then submits quotes a fenced (lease, epoch) pair.  The healthy
        # worker keeps beating through its own slow entities and is never
        # fenced.
        faults.install(
            FaultPlan(
                zombie_hold_lease_s=3.0,
                zombie_limit=1,
                delay_entity_seconds=1.5,
            )
        )
        report = run_cluster_experiment(problems, CONFIG, cluster)

        assert report.stats.leases_expired >= 1
        assert report.stats.results_rejected >= 1
        assert report.stats.epoch > 1
        assert report.quarantined == ()
        assert report.completed == len(problems)
        records = read_records(str(Path(cluster.run_dir) / JOURNAL_NAME))
        rejected = [r for r in records if r["type"] == "result_rejected"]
        assert rejected, "no fenced result was journalled"
        for record in rejected:
            assert record["epoch"] < record["current_epoch"]
        # The fenced results never reached a worker journal: every entity
        # appears exactly once across the merged set.
        assert _done_indices(cluster.run_dir) == list(range(len(problems)))
        assert_identical_curves(serial, report.result)
        _assert_no_active_children()


class TestCoordinatorKill:
    @staticmethod
    def _run_cli(run_dir, *extra, env_extra=None, wait=True):
        env = dict(os.environ, PYTHONPATH=SRC_DIR, **(env_extra or {}))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "experiment", *SWEEP_FLAGS,
             "--run-dir", str(run_dir), *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        if wait:
            stdout, stderr = process.communicate(timeout=300)
            return process.returncode, stdout, stderr
        return process

    @staticmethod
    def _wait_for_entity_done(run_dir, minimum=1, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            count = len(_done_indices(run_dir)) if Path(run_dir).exists() else 0
            if count >= minimum:
                return count
            time.sleep(0.05)
        raise AssertionError(
            f"worker journals never reached {minimum} entity_done records"
        )

    @staticmethod
    def _processes_mentioning(token):
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            if token.encode() in cmdline:
                pids.append(int(entry))
        return pids

    CLUSTER_FLAGS = [
        "--coordinator", "127.0.0.1:0", "--local-workers", "2",
        "--lease-ttl-s", "5", "--heartbeat-s", "0.5",
    ]

    def test_sigkill_plus_resume_is_bit_identical_to_single_host(self, tmp_path):
        single = tmp_path / "single"
        code, _out, err = self._run_cli(single)
        assert code == 0, err

        clustered = tmp_path / "clustered"
        victim = self._run_cli(
            clustered, *self.CLUSTER_FLAGS, wait=False,
            env_extra={"REPRO_FAULTS": "delay_entity_seconds=0.4"},
        )
        try:
            self._wait_for_entity_done(clustered, minimum=1)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        assert victim.returncode == -signal.SIGKILL
        done_before = len(_done_indices(clustered))
        assert done_before < 8, "the kill landed after the sweep finished"
        assert not (clustered / "curve.jsonl").exists()
        epoch_before = read_json(str(clustered / LEASES_NAME))["epoch"]

        # Resume: the dead coordinator's stale lock is taken over, the
        # coordinator re-fences at a strictly higher epoch, the merged
        # journals replay the accepted entities verbatim and fresh local
        # workers recompute only the rest.  The killed run's orphaned
        # local workers find the old port refused and exit at once — they
        # never join the new sweep.
        time.sleep(1.0)
        code, _out, err = self._run_cli(clustered, *self.CLUSTER_FLAGS, "--resume")
        assert code == 0, err

        single_curve = (single / "curve.jsonl").read_bytes()
        cluster_curve = (clustered / "curve.jsonl").read_bytes()
        assert cluster_curve == single_curve  # byte-identical, not just close
        assert len(_done_indices(clustered)) == 8
        leases = read_json(str(clustered / LEASES_NAME))
        assert leases["epoch"] > epoch_before  # the resume re-fenced

        # No process — resumed workers or orphans of the killed coordinator
        # — survives past the resume.
        token = str(clustered)
        deadline = time.monotonic() + 10.0
        while self._processes_mentioning(token) and time.monotonic() < deadline:
            time.sleep(0.25)
        leaked = self._processes_mentioning(token)
        assert not leaked, f"leaked cluster processes: {leaked}"
        _assert_no_active_children()
