"""Group commit in the cluster coordinator, judged from synced bytes only.

A killed process leaves the OS page cache behind, so a kill test cannot
tell a synced record from one that only reached the cache.  These tests
log what was durable at each instant instead: every ``os.fsync`` of a
file (with the file's length at that moment), every ``atomic_write_json``
the coordinator completes (with the payload that became the file), and
every ``LeaseGrant`` it sends.  Replaying that log checks the commit
order, and a run directory rebuilt from the synced prefixes is the disk a
power cut at that instant would leave.  Workers run on threads, so the
coordinator, the log and the faults share one process.
"""

import errno
import json
import os
import shutil
import socket
import stat
import threading
from pathlib import Path

import pytest

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig, run_entity_trajectory
from repro.exceptions import OrchestrationError
from repro.fusion import ModifiedCRH
from repro.orchestration import ClusterConfig, run_cluster_experiment, wire
from repro.orchestration import cluster as cluster_module
from repro.orchestration import cluster_worker
from repro.orchestration.cluster import LEASES_NAME, worker_journal_paths
from repro.orchestration.cluster_worker import run_shard_worker
from repro.orchestration.orchestrator import (
    CHECKPOINT_NAME,
    CURVE_NAME,
    JOURNAL_NAME,
    MANIFEST_NAME,
    _fingerprint,
)
from repro.orchestration.worker import trajectory_to_payload
from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan

CONFIG = ExperimentConfig(selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=16, num_sources=10, max_sources_per_book=8, seed=3)
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


def cluster_config(run_dir, **overrides):
    settings = dict(run_dir=str(run_dir), lease_ttl_s=10.0, heartbeat_s=0.5)
    settings.update(overrides)
    return ClusterConfig(**settings)


def run_with_thread_workers(problems, cluster, workers=2):
    """A cluster sweep served by shard workers on threads.

    The workers are joined even when the coordinator raises; their short
    reconnect window lets them give up on a dead coordinator quickly.
    """
    threads = []

    def worker_body(port, worker_id):
        try:
            run_shard_worker(
                problems, CONFIG, {}, "127.0.0.1", port, worker_id,
                reconnect_window_s=1.0,
            )
        except OrchestrationError:
            pass  # a worker that never got work and lost its coordinator

    def start(port):
        for ordinal in range(workers):
            thread = threading.Thread(
                target=worker_body, args=(port, f"thread-{ordinal}"), daemon=True
            )
            thread.start()
            threads.append(thread)

    try:
        return run_cluster_experiment(problems, CONFIG, cluster, on_listening=start)
    finally:
        for thread in threads:
            thread.join(timeout=15.0)
        assert not any(thread.is_alive() for thread in threads), "worker leaked"


class DurabilityLog:
    """What reached the disk of one run directory, in order, and when each
    grant left."""

    def __init__(self, run_dir):
        self.run_dir = str(run_dir)
        self.events = []
        self.nodelay = []

    def _name_of(self, info):
        """The run-directory file that ``info`` describes right now (an
        inode number alone is reused once its tmp file is renamed over)."""
        for name in os.listdir(self.run_dir):
            if os.path.samestat(info, os.stat(os.path.join(self.run_dir, name))):
                return name
        return None

    def install(self, monkeypatch):
        real_fsync = os.fsync
        real_atomic_write = cluster_module.atomic_write_json
        real_send = cluster_module._Coordinator._send
        real_conn_init = cluster_module._Conn.__init__
        real_connect = cluster_worker._connect

        def fsync(fd):
            real_fsync(fd)
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                self.events.append(("fsync", self._name_of(info), info.st_size))

        def atomic_write_json(path, payload):
            real_atomic_write(path, payload)
            self.events.append(("atomic", os.path.basename(path), json.dumps(payload)))

        def send(coordinator, conn, message):
            if isinstance(message, wire.LeaseGrant):
                self.events.append(("grant", message.epoch, message.lease))
            return real_send(coordinator, conn, message)

        def conn_init(conn, sock):
            self.nodelay.append(
                ("accepted", sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            )
            real_conn_init(conn, sock)

        def connect(*args):
            sock = real_connect(*args)
            self.nodelay.append(
                ("dialled", sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            )
            return sock

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(cluster_module, "atomic_write_json", atomic_write_json)
        monkeypatch.setattr(cluster_module._Coordinator, "_send", send)
        monkeypatch.setattr(cluster_module._Conn, "__init__", conn_init)
        monkeypatch.setattr(cluster_worker, "_connect", connect)


class DiskAt:
    """The durable content of a run directory at one instant of a log."""

    def __init__(self, run_dir, events, instant):
        self.journals = [
            Path(path)
            for path in [os.path.join(run_dir, JOURNAL_NAME), *worker_journal_paths(run_dir)]
        ]
        self.synced = {}
        self.snapshots = {}
        for event in events[:instant]:
            if event[0] == "fsync":
                self.synced[event[1]] = event[2]
            elif event[0] == "atomic":
                self.snapshots[event[1]] = json.loads(event[2])

    def prefix(self, path):
        data = path.read_bytes()[: self.synced.get(path.name, 0)]
        assert data == b"" or data.endswith(b"\n"), f"a sync split a record of {path}"
        return data

    def records(self, path):
        return [json.loads(line) for line in self.prefix(path).splitlines()]

    def done(self):
        return {
            record["index"]
            for path in self.journals
            if path.name != JOURNAL_NAME
            for record in self.records(path)
            if record["type"] == "entity_done"
        }

    def rebuild(self, source, target):
        target.mkdir()
        shutil.copy(source / MANIFEST_NAME, target / MANIFEST_NAME)
        for path in self.journals:
            (target / path.name).write_bytes(self.prefix(path))
        for name, payload in self.snapshots.items():
            (target / name).write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture(scope="module")
def logged_sweep(problems, tmp_path_factory):
    """One eight-entity sweep with its durability log.

    The worker's fourth wire record, its third result, is torn and its
    connection dropped, so the log also holds a fence and a grant at the
    bumped epoch.  Heartbeats are slower than the whole sweep, so the
    fourth record is a result.
    """
    subset = problems[:8]
    run_dir = tmp_path_factory.mktemp("logged") / "run"
    log = DurabilityLog(run_dir)
    with pytest.MonkeyPatch.context() as monkeypatch:
        log.install(monkeypatch)
        faults.install(FaultPlan(drop_connection_at_record=4))
        try:
            report = run_with_thread_workers(
                subset,
                cluster_config(run_dir, lease_entities=2, heartbeat_s=5.0),
                workers=1,
            )
        finally:
            faults.uninstall()
    return subset, run_dir, log, report


class TestCommitOrder:
    def test_the_logged_sweep_matches_the_serial_runner(self, logged_sweep):
        subset, _run_dir, log, report = logged_sweep
        assert report.result.points == run_quality_experiment(subset, CONFIG).points
        assert report.stats.results_accepted == len(subset)
        assert report.stats.leases_expired == 1 and report.stats.epoch == 2
        assert [event[1] for event in log.events if event[0] == "grant"] == [
            1, 1, 2, 2, 2,
        ]

    def test_checkpoints_and_lease_completions_rest_on_synced_results(
        self, logged_sweep
    ):
        _subset, run_dir, log, _report = logged_sweep
        coordinator_journal = Path(run_dir) / JOURNAL_NAME
        checked = 0
        for instant, event in enumerate(log.events, start=1):
            disk = DiskAt(str(run_dir), log.events, instant)
            if event[0] == "atomic" and event[1] == CHECKPOINT_NAME:
                completed = set(json.loads(event[2])["completed"])
                assert completed <= disk.done(), (instant, completed - disk.done())
                checked += 1
            elif event[:2] == ("fsync", JOURNAL_NAME):
                decisions = disk.records(coordinator_journal)
                ranges = {
                    r["lease"]: range(r["start"], r["stop"])
                    for r in decisions
                    if r["type"] == "lease_granted"
                }
                for record in decisions:
                    if record["type"] == "lease_complete":
                        assert set(ranges[record["lease"]]) <= disk.done(), record
                        checked += 1
        assert checked > 4

    def test_every_grant_follows_its_durable_lease_and_epoch(self, logged_sweep):
        _subset, _run_dir, log, _report = logged_sweep
        durable = None
        grants = 0
        for event in log.events:
            if event[0] == "atomic" and event[1] == LEASES_NAME:
                durable = json.loads(event[2])
            elif event[0] == "grant":
                _kind, epoch, lease = event
                assert durable is not None and durable["epoch"] >= epoch
                assert lease in {active["lease"] for active in durable["active"]}
                grants += 1
        assert grants == 5

    def test_a_disk_rebuilt_from_synced_prefixes_resumes_byte_identical(
        self, logged_sweep, tmp_path
    ):
        subset, run_dir, log, _report = logged_sweep
        curve = (Path(run_dir) / CURVE_NAME).read_bytes()
        events = list(log.events)
        # Each logged event is one durable step; rebuild the disk as it
        # stood after four of them, spread over the sweep.
        instants = [len(events) * part // 5 for part in range(1, 5)]
        for instant in instants:
            disk = DiskAt(str(run_dir), events, instant)
            rebuilt = tmp_path / f"at-{instant}"
            disk.rebuild(Path(run_dir), rebuilt)
            report = run_with_thread_workers(
                subset, cluster_config(rebuilt, lease_entities=2, resume=True)
            )
            assert report.resumed == len(disk.done())
            assert (rebuilt / CURVE_NAME).read_bytes() == curve, instant

    def test_nagle_is_off_on_both_ends(self, logged_sweep):
        _subset, _run_dir, log, _report = logged_sweep
        ends = {end for end, _value in log.nodelay}
        assert ends == {"accepted", "dialled"}
        assert all(value != 0 for _end, value in log.nodelay), log.nodelay


class TestBatching:
    def test_one_segment_of_results_costs_one_fsync_and_one_checkpoint(
        self, problems, tmp_path, monkeypatch
    ):
        """A peer sends each leased range's eight results in one segment:
        the coordinator commits each segment with one worker-journal fsync
        and one checkpoint."""
        payloads = [
            trajectory_to_payload(run_entity_trajectory(problem, index, CONFIG, {}))
            for index, problem in enumerate(problems)
        ]
        run_dir = tmp_path / "run"
        log = DurabilityLog(run_dir)
        log.install(monkeypatch)
        digest = wire.fingerprint_digest(_fingerprint(problems, CONFIG, {}))
        segments = []
        threads = []

        def serve_in_segments(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stream = wire.MessageStream(sock)
                stream.send(wire.Hello(worker="batcher", fingerprint=digest))
                stream.recv()  # the welcome
                while True:
                    message = stream.recv()
                    if not isinstance(message, wire.LeaseGrant):
                        break
                    segment = b"".join(
                        wire.encode_message(
                            wire.EntityResult(
                                worker="batcher",
                                lease=message.lease,
                                epoch=message.epoch,
                                index=index,
                                ok=True,
                                payload=payloads[index],
                            )
                        )
                        for index in range(message.start, message.stop)
                    )
                    segments.append(len(segment))
                    sock.sendall(segment)
                stream.close()

        def batching_peer(port):
            try:
                serve_in_segments(port)
            except BaseException:
                # Finish the sweep so the test fails on its asserts, not
                # by waiting for a worker forever.
                run_shard_worker(
                    problems, CONFIG, {}, "127.0.0.1", port, "fallback",
                    reconnect_window_s=5.0,
                )
                raise

        def start(port):
            thread = threading.Thread(target=batching_peer, args=(port,), daemon=True)
            thread.start()
            threads.append(thread)

        report = run_cluster_experiment(
            problems, CONFIG, cluster_config(run_dir, lease_entities=8),
            on_listening=start,
        )
        for thread in threads:
            thread.join(timeout=15.0)
        assert not any(thread.is_alive() for thread in threads)
        assert report.stats.results_accepted == len(problems) == 16
        # Two ranges of eight, each small enough for one loopback segment.
        assert len(segments) == 2 and max(segments) < 60_000, segments
        worker_fsyncs = [
            e for e in log.events if e[:2] == ("fsync", "journal-batcher.jsonl")
        ]
        checkpoints = [
            json.loads(e[2])
            for e in log.events
            if e[0] == "atomic" and e[1] == CHECKPOINT_NAME
        ]
        assert len(worker_fsyncs) == 2
        # The run's opening checkpoint lists nothing; then one per segment.
        assert [c["completed"] for c in checkpoints] == [
            [],
            list(range(8)),
            list(range(16)),
        ]
        assert [c["status"] for c in checkpoints] == ["running", "running", "complete"]


class TestInjectedFaults:
    @pytest.mark.parametrize(
        "plan, error",
        [
            pytest.param(FaultPlan(enospc_at_journal_append=6), OSError, id="enospc"),
            pytest.param(
                FaultPlan(torn_write_at_checkpoint=6), FaultInjected, id="torn_checkpoint"
            ),
        ],
    )
    def test_a_fault_mid_sweep_raises_and_resume_is_byte_identical(
        self, logged_sweep, tmp_path, plan, error
    ):
        subset, clean_dir, _log, _report = logged_sweep
        run_dir = tmp_path / "run"
        faults.install(plan)
        with pytest.raises(error) as excinfo:
            run_with_thread_workers(subset, cluster_config(run_dir, lease_entities=2))
        faults.uninstall()
        if error is OSError:
            assert excinfo.value.errno == errno.ENOSPC
        assert not (run_dir / CURVE_NAME).exists()
        report = run_with_thread_workers(
            subset, cluster_config(run_dir, lease_entities=2, resume=True)
        )
        # The fault landed mid-sweep: some results were kept, some re-run.
        assert 0 < report.resumed < len(subset)
        assert report.completed == len(subset)
        assert (run_dir / CURVE_NAME).read_bytes() == (
            Path(clean_dir) / CURVE_NAME
        ).read_bytes()
