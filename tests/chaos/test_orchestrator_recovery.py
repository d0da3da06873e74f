"""Chaos suite: the durable orchestrator under real kills.

The crash-resume contract asserted from the outside: an orchestrator
SIGKILLed mid-sweep (and one that dies mid-checkpoint-write) resumes via
``--resume`` to a curve bit-identical to an undisturbed run; a shard
SIGKILLed mid-entity is replaced and the entity retried to the exact same
trajectory; an orchestrator SIGTERM reaps its shard processes through the
process-wide shutdown guard; and a hard-killed service restores sessions
from its snapshot directory within 1e-12.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.fusion import ModifiedCRH
from repro.orchestration import OrchestratorConfig, run_checkpointed_experiment
from repro.orchestration.journal import read_records
from repro.testing import faults
from repro.testing.faults import KILL_EXITCODE, FaultPlan

pytestmark = [pytest.mark.chaos, pytest.mark.parallel]

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: CLI flags describing one deterministic sweep (8 books, 3 rounds each).
SWEEP_FLAGS = [
    "--books", "8", "--sources", "10", "--seed", "3",
    "--budget", "9", "--k", "3", "--max-facts", "8",
]


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


def _processes_mentioning(token):
    """Pids of live processes whose command line contains ``token``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if token.encode() in cmdline and state != b"Z":
            pids.append(int(entry))
    return pids


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


def _wait_for_journal(run_dir, kind, minimum=1, timeout=120.0):
    journal = Path(run_dir) / "journal.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists():
            count = sum(
                1 for record in read_records(str(journal))
                if record.get("type") == kind
            )
            if count >= minimum:
                return count
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {minimum} {kind!r} records")


def _curve(run_dir):
    return read_records(str(Path(run_dir) / "curve.jsonl"))


def _assert_identical_curves(expected, actual):
    assert len(expected) == len(actual)
    for theirs, ours in zip(expected, actual):
        assert theirs == ours  # ids equal, every objective float bit-equal


class TestOrchestratorKill:
    def test_sigkill_mid_sweep_resumes_bit_identical(self, tmp_path):
        undisturbed = tmp_path / "undisturbed"
        code, out, err = _run_cli(undisturbed)
        assert code == 0, err

        crashed = tmp_path / "crashed"
        # Stall each entity dispatch so the kill reliably lands mid-sweep.
        victim = _run_cli(
            crashed, wait=False,
            env_extra={"REPRO_FAULTS": "delay_entity_seconds=0.5"},
        )
        try:
            _wait_for_journal(crashed, "entity_done", minimum=1)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        assert victim.returncode == -signal.SIGKILL
        done_before = _wait_for_journal(crashed, "entity_done", minimum=1)
        assert done_before < 8, "the kill landed after the sweep finished"
        assert not (crashed / "curve.jsonl").exists()

        # Orphaned shards notice the dead parent (EOF on the command pipe)
        # and exit on their own — the one in flight once its stalled entity
        # finishes.
        deadline = time.monotonic() + 10.0
        while _processes_mentioning(str(crashed)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _processes_mentioning(str(crashed)) == [], "orphaned shards"
        # Resume: the SIGKILLed process's stale lock is taken over, the
        # journal replayed, the remaining entities recomputed.
        code, out, err = _run_cli(crashed, "--resume")
        assert code == 0, err
        _assert_identical_curves(_curve(undisturbed), _curve(crashed))

    def test_death_mid_checkpoint_write_resumes_bit_identical(self, tmp_path):
        undisturbed = tmp_path / "undisturbed"
        code, _, err = _run_cli(undisturbed)
        assert code == 0, err

        crashed = tmp_path / "crashed"
        # The fifth atomic write (lock + manifest precede the per-entity
        # checkpoints) is torn in half and the process dies on the injected
        # error — the worst instant to die, mid-durability-write.
        code, _, err = _run_cli(
            crashed,
            env_extra={"REPRO_FAULTS": "torn_write_at_checkpoint=5"},
        )
        assert code != 0
        assert "injected torn checkpoint" in err
        assert (crashed / "checkpoint.json.tmp").exists()

        code, _, err = _run_cli(crashed, "--resume")
        assert code == 0, err
        _assert_identical_curves(_curve(undisturbed), _curve(crashed))
        assert not (crashed / "checkpoint.json.tmp").exists()


class TestShardKill:
    @pytest.fixture(scope="class")
    def problems(self):
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

    def test_shard_sigkill_mid_entity_is_retried_bit_identical(
        self, problems, tmp_path
    ):
        config = ExperimentConfig(
            selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11
        )
        serial = run_quality_experiment(problems, config)
        # Entity dispatch #2 hard-kills its shard (fork-shared counter, one
        # budget unit): the orchestrator must charge the attempt, fork a
        # replacement shard and retry the entity to the exact trajectory.
        faults.install(FaultPlan(kill_shard_at_entity=2, shard_kill_limit=1))
        report = run_checkpointed_experiment(
            problems,
            config,
            OrchestratorConfig(run_dir=str(tmp_path / "run"), shards=2),
        )
        faults.uninstall()
        assert len(serial.points) == len(report.result.points)
        for theirs, ours in zip(serial.points, report.result.points):
            assert theirs == ours
        assert report.quarantined == ()
        failed = [
            record
            for record in read_records(str(tmp_path / "run" / "journal.jsonl"))
            if record["type"] == "entity_failed"
        ]
        assert len(failed) == 1
        assert f"exitcode {KILL_EXITCODE}" in failed[0]["error"]
        # No shard (or replacement) processes leak past the run.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestSigtermReapsShards:
    #: Child that forks an orchestrator shard pool, registers it with the
    #: process-wide shutdown guard, reports the shard pids, then idles.
    CHILD = """\
import time
from repro.core.selection.parallel import register_shutdown_reaper
from repro.orchestration import worker as worker_module
from repro.orchestration.orchestrator import _ShardPool
worker_module._SHARD_CONTEXT = ([], None, {})
pool = _ShardPool(2)
register_shutdown_reaper(pool)
print(" ".join(str(s.process.pid) for s in pool.shards), flush=True)
time.sleep(60)
"""

    @staticmethod
    def _alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_sigterm_reaps_registered_shard_pool(self):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            pids = [int(token) for token in child.stdout.readline().split()]
            assert len(pids) == 2
            assert all(self._alive(pid) for pid in pids)
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=15)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        # The guard chains to the default disposition (exit reads SIGTERM)
        # after reaping the registered pool: no shard survives the parent.
        assert child.returncode == -signal.SIGTERM
        deadline = time.monotonic() + 10.0
        while any(self._alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [pid for pid in pids if self._alive(pid)]
        assert not leaked, f"SIGTERM leaked shard processes: {leaked}"


class TestServiceRestartRecovery:
    #: Child that builds a durable service, merges two rounds, prints the
    #: posterior marginals, then dies by SIGKILL — no graceful shutdown.
    CHILD = """\
import asyncio, json, os, signal, sys
from repro.core.crowd import CrowdModel
from repro.datasets import running_example_distribution
from repro.service import RefinementService

async def main():
    async with RefinementService(
        state_dir=sys.argv[1], snapshot_debounce_s=0.0
    ) as service:
        created = await service.create_session(
            running_example_distribution(), CrowdModel(0.8), budget=10
        )
        await service.post_answers(created.session_id, {"f1": True})
        await service.post_answers(created.session_id, {"f2": False, "f3": True})
        view = await service.get_posterior(created.session_id)
        print(json.dumps({
            "session_id": created.session_id,
            "marginals": view.marginals,
            "rounds_merged": view.rounds_merged,
        }), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

asyncio.run(main())
"""

    def test_hard_killed_service_restores_within_1e12(self, tmp_path):
        state_dir = str(tmp_path / "state")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, state_dir],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        before = json.loads(child.stdout)

        from repro.service import RefinementService

        async def restore():
            async with RefinementService(state_dir=state_dir) as service:
                return await service.get_posterior(before["session_id"])

        view = asyncio.run(restore())
        assert view.rounds_merged == before["rounds_merged"]
        for fact_id, marginal in before["marginals"].items():
            assert abs(view.marginals[fact_id] - marginal) < 1e-12
