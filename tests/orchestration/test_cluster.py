"""Multi-host cluster orchestration: leases, fencing, and bit-identity.

The cluster's headline contract mirrors the single-host orchestrator's: a
sweep leased out over TCP produces a curve bit-identical to the serial
runner, whatever the workers do.  These tests run the coordinator in-process
with shard workers on threads (loopback sockets, no forks), so they exercise
the full wire protocol — handshake, grants, heartbeats, results, shutdown —
inside plain tier-1.  Fork-based local-worker pools and SIGKILL chaos live
in ``tests/chaos/test_cluster_recovery.py``.
"""

import json
import multiprocessing
import os
import signal
import socket
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.core.runtime import RuntimeOptions
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.exceptions import OrchestrationError
from repro.fusion import ModifiedCRH
from repro.orchestration import ClusterConfig, run_cluster_experiment, wire
from repro.orchestration import cluster as cluster_module
from repro.orchestration import cluster_worker
from repro.orchestration.cluster import worker_journal_paths
from repro.orchestration.cluster_worker import run_shard_worker
from repro.orchestration.journal import read_records
from repro.orchestration.orchestrator import JOURNAL_NAME, _fingerprint
from repro.service.api import MAX_LINE_BYTES
from repro.testing import faults
from repro.testing.faults import FaultPlan


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

#: Parallel settings a durable sweep cannot honour: workers run every entity
#: serially, next to a heartbeat thread that makes forking unsafe.
PARALLEL_RUNTIMES = [
    pytest.param(RuntimeOptions(workers=2, parallel_threshold=0), id="workers"),
    pytest.param(RuntimeOptions(parallel_entities=2), id="parallel_entities"),
]


def assert_identical_curves(expected, actual):
    assert len(expected.points) == len(actual.points)
    for theirs, ours in zip(expected.points, actual.points):
        assert theirs == ours  # exact float equality, field by field


def cluster_config(tmp_path, **overrides):
    defaults = dict(
        run_dir=str(tmp_path / "run"),
        lease_ttl_s=10.0,
        heartbeat_s=0.5,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_with_thread_workers(
    problems, config, cluster, workers=1, worker_config=None, budgets=None
):
    """Drive a cluster sweep with shard workers on threads; collect errors."""
    threads = []
    worker_errors = []

    def worker_body(port, worker_id):
        try:
            run_shard_worker(
                problems,
                worker_config or config,
                dict(budgets or {}),
                "127.0.0.1",
                port,
                worker_id,
                reconnect_window_s=5.0,
            )
        except OrchestrationError as error:
            worker_errors.append(error)

    def start_workers(port):
        for ordinal in range(workers):
            thread = threading.Thread(
                target=worker_body, args=(port, f"thread-{ordinal}"), daemon=True
            )
            thread.start()
            threads.append(thread)

    report = run_cluster_experiment(
        problems, config, cluster, budgets=budgets, on_listening=start_workers
    )
    for thread in threads:
        thread.join(timeout=15.0)
    assert not any(thread.is_alive() for thread in threads), "worker thread leaked"
    return report, worker_errors


class TestClusterConfigValidation:
    def test_heartbeat_must_sit_inside_lease_ttl(self):
        with pytest.raises(OrchestrationError, match="heartbeat_s must sit"):
            ClusterConfig(run_dir="d", lease_ttl_s=1.0, heartbeat_s=1.0)
        with pytest.raises(OrchestrationError, match="heartbeat_s must sit"):
            ClusterConfig(run_dir="d", heartbeat_s=0.0)

    def test_bounds_are_enforced(self):
        with pytest.raises(OrchestrationError, match="run_dir"):
            ClusterConfig(run_dir="")
        with pytest.raises(OrchestrationError, match="lease_entities"):
            ClusterConfig(run_dir="d", lease_entities=0)
        with pytest.raises(OrchestrationError, match="max_attempts"):
            ClusterConfig(run_dir="d", max_attempts=0)
        with pytest.raises(OrchestrationError, match="retry_backoff_s"):
            ClusterConfig(run_dir="d", retry_backoff_s=-0.1)
        with pytest.raises(OrchestrationError, match="local_workers"):
            ClusterConfig(run_dir="d", local_workers=-1)

    def test_empty_problem_list_is_refused(self, tmp_path):
        with pytest.raises(OrchestrationError, match="empty problem list"):
            run_cluster_experiment([], CONFIG, cluster_config(tmp_path))

    @pytest.mark.parametrize("runtime", PARALLEL_RUNTIMES)
    def test_coordinator_refuses_parallel_settings(self, problems, tmp_path, runtime):
        cluster = cluster_config(tmp_path)
        with pytest.raises(OrchestrationError, match="cannot honour"):
            run_with_thread_workers(
                problems, replace(CONFIG, runtime=runtime), cluster, workers=1
            )
        assert not os.path.exists(cluster.run_dir), "refused before binding"

    @pytest.mark.parametrize("runtime", PARALLEL_RUNTIMES)
    def test_shard_worker_refuses_parallel_settings(self, problems, runtime):
        with socket.socket() as probe:  # a loopback port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(OrchestrationError, match="cannot honour"):
            run_shard_worker(
                problems, replace(CONFIG, runtime=runtime), {}, "127.0.0.1",
                port, "pooled", reconnect_window_s=0.2,
            )


class TestClusterEquivalence:
    def test_leased_sweep_matches_serial_runner(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, lease_entities=2)
        report, errors = run_with_thread_workers(
            problems, CONFIG, cluster, workers=2
        )
        assert errors == []
        assert_identical_curves(serial, report.result)
        assert report.completed == len(problems)
        assert report.quarantined == ()
        assert report.stats.results_accepted == len(problems)
        assert report.stats.results_rejected == 0
        assert report.stats.leases_expired == 0
        assert report.stats.epoch == 1  # nothing was ever fenced

    def test_accepted_results_land_in_worker_journals(self, problems, tmp_path):
        cluster = cluster_config(tmp_path, lease_entities=2)
        report, _errors = run_with_thread_workers(
            problems, CONFIG, cluster, workers=2
        )
        journals = worker_journal_paths(cluster.run_dir)
        assert journals, "no worker journal was written"
        done = [
            record
            for path in journals
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        assert sorted(record["index"] for record in done) == list(
            range(len(problems))
        )
        for record in done:
            # Same seed provenance as every other execution path — the root
            # of the bit-identity guarantee.
            assert record["seeds"]["worker_seed"] == CONFIG.seed * 7919 + record["index"]
            assert record["worker"].startswith("thread-")
        # The coordinator journal carries decisions, never entity payloads.
        coordinator_records = read_records(
            os.path.join(cluster.run_dir, JOURNAL_NAME)
        )
        assert not any(r["type"] == "entity_done" for r in coordinator_records)
        assert any(r["type"] == "lease_granted" for r in coordinator_records)
        assert any(r["type"] == "cluster_stats" for r in coordinator_records)

    def test_budget_overrides_flow_through(self, problems, tmp_path):
        budgets = {problems[0].entity: 3, problems[1].entity: 15}
        serial = run_quality_experiment(problems, CONFIG, budgets=budgets)
        report, errors = run_with_thread_workers(
            problems, CONFIG, cluster_config(tmp_path), budgets=budgets
        )
        assert errors == []
        assert_identical_curves(serial, report.result)


class TestIdleWorker:
    def test_an_idle_worker_keeps_its_connection(
        self, problems, tmp_path, monkeypatch
    ):
        """Waiting longer than the dial timeout for the next grant is no
        sign of a dead coordinator: the worker must not reconnect."""
        monkeypatch.setattr(cluster_worker, "_DIAL_TIMEOUT_S", 0.2)
        subset = problems[:3]
        serial = run_quality_experiment(subset, CONFIG)
        # Two workers, leases of two: the worker holding the one-entity
        # lease idles for a whole entity while the other finishes its pair.
        faults.install(FaultPlan(delay_entity_seconds=0.6))
        cluster = cluster_config(tmp_path, lease_entities=2)
        report, errors = run_with_thread_workers(subset, CONFIG, cluster, workers=2)
        assert errors == []
        assert report.stats.disconnects == 0
        types = [
            record["type"]
            for record in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
        ]
        assert "worker_disconnected" not in types
        assert_identical_curves(serial, report.result)


class TestClusterResume:
    def test_resume_of_a_complete_run_recomputes_nothing(self, problems, tmp_path):
        cluster = cluster_config(tmp_path)
        first, _errors = run_with_thread_workers(problems, CONFIG, cluster)
        resumed = run_cluster_experiment(
            problems,
            CONFIG,
            cluster_config(tmp_path, resume=True),
        )  # no workers: every entity must replay from the merged journals
        assert resumed.resumed == len(problems)
        assert resumed.completed == len(problems)
        assert_identical_curves(first.result, resumed.result)

    def test_fresh_start_on_existing_run_dir_requires_resume(
        self, problems, tmp_path
    ):
        cluster = cluster_config(tmp_path)
        run_with_thread_workers(problems, CONFIG, cluster)
        with pytest.raises(OrchestrationError, match="resume"):
            run_cluster_experiment(problems, CONFIG, cluster_config(tmp_path))


class TestFencingAndDelivery:
    def test_duplicate_delivery_is_dropped_not_journalled_twice(
        self, problems, tmp_path
    ):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, lease_entities=4)
        faults.install(FaultPlan(duplicate_entity_result=1, duplicate_limit=2))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        assert report.stats.duplicates_dropped == 2
        assert report.stats.results_accepted == len(problems)
        assert_identical_curves(serial, report.result)
        done = [
            record
            for path in worker_journal_paths(cluster.run_dir)
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        indices = [record["index"] for record in done]
        assert len(indices) == len(set(indices)), "a duplicate reached a journal"
        duplicates = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "result_duplicate"
        ]
        assert len(duplicates) == 2

    def test_failed_entities_retry_and_converge(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, max_attempts=3)
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=2))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        assert report.completed == len(problems)
        assert report.quarantined == ()
        assert_identical_curves(serial, report.result)
        failures = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "entity_failed"
        ]
        assert len(failures) == 2

    def test_poison_entities_quarantine_after_max_attempts(
        self, problems, tmp_path
    ):
        cluster = cluster_config(tmp_path, lease_entities=1, max_attempts=2)
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=4))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        # Four injected failures at one-entity leases and two attempts each:
        # entities 0 and 1 burn both attempts and quarantine; the rest pass.
        assert len(report.quarantined) == 2
        assert report.completed == len(problems) - 2
        quarantined = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "quarantined"
        ]
        assert sorted(r["index"] for r in quarantined) == [0, 1]

    def test_undecodable_payload_is_charged_not_journalled(
        self, problems, tmp_path, monkeypatch
    ):
        """A worker on other code answers entity 0 with a payload that is no
        trajectory: the coordinator retries it, then quarantines it, and the
        payload never reaches a worker journal."""
        from repro.orchestration import cluster_worker

        bogus = {"bogus": 1}
        running = []
        run_trajectory = cluster_worker.run_entity_trajectory
        encode = cluster_worker.trajectory_to_payload

        def tracked_run(problem, index, *args):
            running.append(index)
            return run_trajectory(problem, index, *args)

        def payload_of(trajectory):
            return bogus if running[-1] == 0 else encode(trajectory)

        monkeypatch.setattr(cluster_worker, "run_entity_trajectory", tracked_run)
        monkeypatch.setattr(cluster_worker, "trajectory_to_payload", payload_of)
        cluster = cluster_config(tmp_path, lease_entities=1, max_attempts=2)
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        assert report.completed == len(problems) - 1
        assert [entity for entity, _ in report.quarantined] == [problems[0].entity]
        done = [
            record
            for path in worker_journal_paths(cluster.run_dir)
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        assert sorted(record["index"] for record in done) == list(
            range(1, len(problems))
        )
        assert all(record["trajectory"] != bogus for record in done)
        quarantined = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "quarantined"
        ]
        assert [r["index"] for r in quarantined] == [0]
        assert "malformed result payload: KeyError" in quarantined[0]["error"]
        assert "initial_cost" in quarantined[0]["error"]

    def test_worker_for_a_different_sweep_is_refused(self, problems, tmp_path):
        other_config = ExperimentConfig(
            selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=99
        )
        cluster = cluster_config(tmp_path)
        threads = []
        refusals = []

        def wrong_worker(port):
            try:
                run_shard_worker(
                    problems, other_config, {}, "127.0.0.1", port,
                    "wrong-sweep", reconnect_window_s=2.0,
                )
            except OrchestrationError as error:
                refusals.append(str(error))

        def right_worker(port):
            run_shard_worker(
                problems, CONFIG, {}, "127.0.0.1", port,
                "right-sweep", reconnect_window_s=5.0,
            )

        def start_workers(port):
            for target in (wrong_worker, right_worker):
                thread = threading.Thread(target=target, args=(port,), daemon=True)
                thread.start()
                threads.append(thread)

        report = run_cluster_experiment(
            problems, CONFIG, cluster, on_listening=start_workers
        )
        for thread in threads:
            thread.join(timeout=15.0)
        assert report.completed == len(problems)
        assert len(refusals) == 1
        assert "refused worker wrong-sweep" in refusals[0]
        assert "fingerprint_mismatch" in refusals[0]
        # Every accepted record came from the matching worker.
        done = [
            record
            for path in worker_journal_paths(cluster.run_dir)
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        assert all(record["worker"] == "right-sweep" for record in done)


#: One wire line each, from a peer that never said Hello.  Each used to
#: escape the coordinator's decoder untyped and kill the sweep.
HOSTILE_LINES = [
    pytest.param(b'{"type": [1]}\n', id="unhashable_type"),
    pytest.param(b"[" * 100_000 + b"\n", id="deep_nesting"),
    pytest.param(
        b'{"type": "heartbeat", "worker": "x", "lease": ["l"], "epoch": 1}\n',
        id="heartbeat_list_lease",
    ),
    pytest.param(
        b'{"type": "entity_result", "worker": "x", "lease": {"l": 1}, '
        b'"epoch": 1, "index": 0, "ok": true}\n',
        id="result_object_lease",
    ),
]


@pytest.fixture(scope="module")
def clean_sweep(problems, tmp_path_factory):
    cluster = cluster_config(tmp_path_factory.mktemp("clean"))
    report, errors = run_with_thread_workers(problems, CONFIG, cluster)
    assert errors == []
    return report.result


class TestHostilePeers:
    @pytest.mark.parametrize("line", HOSTILE_LINES)
    def test_a_bad_line_is_refused_and_the_sweep_completes(
        self, problems, clean_sweep, tmp_path, line
    ):
        replies = []
        threads = []

        def hostile_peer_then_worker(port):
            # The hostile line is answered before the honest worker connects,
            # so the coordinator handles it while the sweep is still open.
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(line)
                with sock.makefile("rb") as reader:
                    replies.append(reader.readline())
                    replies.append(reader.readline())
            run_shard_worker(
                problems, CONFIG, {}, "127.0.0.1", port, "honest",
                reconnect_window_s=5.0,
            )

        def start(port):
            thread = threading.Thread(
                target=hostile_peer_then_worker, args=(port,), daemon=True
            )
            thread.start()
            threads.append(thread)

        report = run_cluster_experiment(
            problems, CONFIG, cluster_config(tmp_path), on_listening=start
        )
        for thread in threads:
            thread.join(timeout=15.0)
        assert not any(thread.is_alive() for thread in threads)
        refusal = json.loads(replies[0])
        assert refusal["type"] == "error"
        assert refusal["code"] == "protocol_error"
        assert replies[1] == b""  # exactly one line, then the coordinator hung up
        assert report.completed == len(problems)
        assert_identical_curves(clean_sweep, report.result)

    def test_a_near_limit_line_sharing_a_recv_is_accepted(
        self, problems, clean_sweep, tmp_path, monkeypatch
    ):
        """A legal line of exactly the limit, sent in one segment with the
        next message, must not count that message against its length."""
        limit = 512
        monkeypatch.setattr(cluster_module, "MAX_LINE_BYTES", limit)
        digest = wire.fingerprint_digest(_fingerprint(problems, CONFIG, {}))
        bare = wire.encode_message(wire.Hello(worker="", fingerprint=digest))
        name = "w" * (limit - len(bare))
        hello = wire.encode_message(wire.Hello(worker=name, fingerprint=digest))
        beat = wire.encode_message(wire.Heartbeat(worker=name, lease="", epoch=0))
        assert len(hello) == limit
        replies = []
        threads = []

        def near_limit_peer_then_worker(port):
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                    sock.sendall(hello + beat)
                    with sock.makefile("rb") as reader:
                        replies.append(reader.readline())
                        replies.append(reader.readline())
            finally:
                # Result lines are longer than the shrunk limit: restore it
                # before the honest worker finishes the sweep.
                cluster_module.MAX_LINE_BYTES = MAX_LINE_BYTES
                run_shard_worker(
                    problems, CONFIG, {}, "127.0.0.1", port, "honest",
                    reconnect_window_s=5.0,
                )

        def start(port):
            thread = threading.Thread(
                target=near_limit_peer_then_worker, args=(port,), daemon=True
            )
            thread.start()
            threads.append(thread)

        report = run_cluster_experiment(
            problems, CONFIG, cluster_config(tmp_path), on_listening=start
        )
        for thread in threads:
            thread.join(timeout=15.0)
        assert not any(thread.is_alive() for thread in threads)
        # Both lines were taken: the peer was welcomed and, still
        # connected, leased the first range.
        assert [json.loads(reply)["type"] if reply else None for reply in replies] == [
            "welcome",
            "lease_grant",
        ]
        assert report.completed == len(problems)
        assert_identical_curves(clean_sweep, report.result)


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the main thread once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def eight_problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=8, num_sources=10, max_sources_per_book=8, seed=3)
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


def coordinator_records(run_dir, kind):
    return [
        record
        for record in read_records(os.path.join(run_dir, JOURNAL_NAME))
        if record["type"] == kind
    ]


@pytest.mark.parallel
class TestLocalWorkerPool:
    def test_forked_local_workers_match_serial_runner(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        report = run_cluster_experiment(
            problems,
            CONFIG,
            cluster_config(tmp_path, lease_entities=2, local_workers=2),
        )
        assert_identical_curves(serial, report.result)
        assert report.completed == len(problems)
        assert report.stats.results_rejected == 0
        assert multiprocessing.active_children() == []

    def test_a_fenced_lease_charges_only_the_entity_in_flight(
        self, eight_problems, tmp_path
    ):
        # Two leases of four; the second entity any worker starts kills its
        # worker.  Only that entity had started, so only it is charged —
        # and with one attempt allowed, only it is quarantined.  The rest
        # of the fenced range runs on the survivor or the replacement.
        faults.install(FaultPlan(kill_shard_at_entity=2))
        report = run_cluster_experiment(
            eight_problems,
            CONFIG,
            cluster_config(
                tmp_path, lease_entities=4, max_attempts=1, local_workers=2
            ),
        )
        run_dir = str(tmp_path / "run")
        failed = coordinator_records(run_dir, "entity_failed")
        assert len(failed) == 1
        assert "fenced" in failed[0]["error"]
        assert len(report.quarantined) == 1
        assert report.quarantined[0][0] == failed[0]["entity"]
        assert report.completed == len(eight_problems) - 1
        assert multiprocessing.active_children() == []

    def test_dead_local_workers_are_replaced(self, eight_problems, tmp_path):
        # Both original workers die mid-lease.  Without replacements no
        # worker would be left for the fenced ranges and the sweep would
        # never return.
        serial = run_quality_experiment(eight_problems, CONFIG)
        faults.install(FaultPlan(kill_shard_at_entity=2, shard_kill_limit=2))
        with deadline(60.0):
            report = run_cluster_experiment(
                eight_problems,
                CONFIG,
                cluster_config(tmp_path, lease_entities=4, local_workers=2),
            )
        faults.uninstall()
        assert_identical_curves(serial, report.result)
        assert report.quarantined == ()
        run_dir = str(tmp_path / "run")
        assert len(coordinator_records(run_dir, "entity_failed")) == 2
        exits = coordinator_records(run_dir, "local_worker_exited")
        assert len(exits) == 2
        for record in exits:
            assert record["exitcode"] == faults.KILL_EXITCODE
            assert record["replacement"] is not None
        assert multiprocessing.active_children() == []
