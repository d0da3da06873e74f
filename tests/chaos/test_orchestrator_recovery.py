"""Chaos suite: the durable ``--run-dir`` sweep under real kills.

A ``--run-dir`` sweep runs on the lease coordinator with local workers.
The crash-resume contract asserted from the outside: a coordinator
SIGKILLed mid-sweep (and one that dies mid-checkpoint-write) resumes via
``--resume`` to a curve bit-identical to an undisturbed run, and its
orphaned workers exit at once, also after a replacement was forked; a
worker killed mid-entity costs that entity one attempt, is replaced, and
the entity is retried to the exact same trajectory; a coordinator SIGTERM
reaps its local workers through the process-wide shutdown guard; and a
hard-killed service restores sessions from its snapshot directory within
1e-12.
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
from repro.orchestration.cluster import worker_journal_paths
from repro.orchestration.journal import merge_journals, read_records
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


def _records(run_dir):
    """The coordinator and worker journals, merged as resume reads them."""
    if not Path(run_dir).exists():
        return []
    return merge_journals(
        [str(Path(run_dir) / "journal.jsonl")] + worker_journal_paths(str(run_dir))
    )


def _wait_for_journal(run_dir, kind, minimum=1, timeout=120.0, **fields):
    """Wait for ``minimum`` records of ``kind`` whose ``fields`` match."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        count = sum(
            1 for record in _records(run_dir)
            if record.get("type") == kind
            and all(record.get(key) == value for key, value in fields.items())
        )
        if count >= minimum:
            return count
        time.sleep(0.05)
    raise AssertionError(
        f"journals never reached {minimum} {kind!r} records matching {fields}"
    )


def _assert_no_process_left(token, timeout=10.0):
    """No process whose command line names ``token`` survives ``timeout``."""
    deadline = time.monotonic() + timeout
    while _processes_mentioning(token) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _processes_mentioning(token) == [], "orphaned workers"


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

        # Orphaned workers see their connection drop, find the port refused
        # on their one redial and exit at once — the one mid-entity once its
        # stalled entity finishes.
        _assert_no_process_left(str(crashed))
        # Resume: the SIGKILLed process's stale lock is taken over, the
        # journals replayed, the remaining entities recomputed.
        code, out, err = _run_cli(crashed, "--resume")
        assert code == 0, err
        _assert_identical_curves(_curve(undisturbed), _curve(crashed))

    def test_death_mid_checkpoint_write_resumes_bit_identical(self, tmp_path):
        undisturbed = tmp_path / "undisturbed"
        code, _, err = _run_cli(undisturbed)
        assert code == 0, err

        crashed = tmp_path / "crashed"
        # The fifth atomic write lands in the commit of the first completed
        # lease, after its results were synced (the manifest, the opening
        # checkpoint and the grants' leases.json come first).  It is torn in
        # half and the process dies on the injected error — the worst
        # instant to die, mid-durability-write.
        code, _, err = _run_cli(
            crashed,
            env_extra={"REPRO_FAULTS": "torn_write_at_checkpoint=5"},
        )
        assert code != 0
        assert "injected torn checkpoint" in err
        assert list(crashed.glob("*.tmp")), "no torn write was left behind"

        code, _, err = _run_cli(crashed, "--resume")
        assert code == 0, err
        _assert_identical_curves(_curve(undisturbed), _curve(crashed))
        assert not list(crashed.glob("*.tmp"))

    def test_sigkill_after_a_replacement_leaves_no_process(self, tmp_path):
        run_dir = tmp_path / "run"
        # The first entity kills its worker; once the replacement holds the
        # fenced range, the coordinator is SIGKILLed.  The replacement closed
        # every coordinator socket it inherited, so each orphan sees EOF.
        victim = _run_cli(
            run_dir, wait=False,
            env_extra={
                "REPRO_FAULTS": "kill_shard_at_entity=1,delay_entity_seconds=0.5"
            },
        )
        try:
            _wait_for_journal(run_dir, "lease_granted", worker="local-2")
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        assert victim.returncode == -signal.SIGKILL
        _assert_no_process_left(str(run_dir))


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
        # Entity dispatch #2 hard-kills its worker (fork-shared counter, one
        # budget unit): the coordinator must fence the lease, charge the one
        # entity in flight, fork a replacement worker and retry the entity
        # to the exact trajectory.
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
        records = read_records(str(tmp_path / "run" / "journal.jsonl"))
        failed = [record for record in records if record["type"] == "entity_failed"]
        assert len(failed) == 1
        assert "fenced" in failed[0]["error"]
        exits = [
            record for record in records if record["type"] == "local_worker_exited"
        ]
        assert [record["exitcode"] for record in exits] == [KILL_EXITCODE]
        # No worker (or replacement) processes leak past the run.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestSigtermReapsLocalWorkers:
    def test_sigterm_reaps_the_local_workers(self, tmp_path):
        run_dir = tmp_path / "run"
        # Each entity stalls for 20 s, so an orphan would outlive the 5 s
        # deadline below: only the shutdown guard's reap can pass it.
        coordinator = _run_cli(
            run_dir, wait=False,
            env_extra={"REPRO_FAULTS": "delay_entity_seconds=20"},
        )
        try:
            _wait_for_journal(run_dir, "lease_granted", minimum=2)
            workers = [
                pid for pid in _processes_mentioning(str(run_dir))
                if pid != coordinator.pid
            ]
            assert len(workers) == 2
            coordinator.send_signal(signal.SIGTERM)
            coordinator.wait(timeout=15)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait()
        # The guard chains to the default disposition (exit reads SIGTERM)
        # after reaping the registered pool: no worker survives the parent.
        assert coordinator.returncode == -signal.SIGTERM
        _assert_no_process_left(str(run_dir), timeout=5.0)


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
