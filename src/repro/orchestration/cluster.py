"""Multi-host cluster coordinator: lease-fenced entity ranges over TCP.

:func:`run_cluster_experiment` drives the same durable sweep as the
single-host orchestrator, but across shard workers it can only reach over a
socket — which changes the failure model completely.  A fork-pool shard that
dies is *observable* (``os.kill`` probeable, pipe EOF); a remote worker that
goes silent is **indistinguishable from a partitioned one that is still
computing**.  The coordinator therefore never trusts silence and never
trusts late arrivals:

* **Leases, not dispatches.**  Work moves as leases of contiguous
  entity-index ranges.  A lease is alive only while heartbeats keep arriving
  within ``lease_ttl_s``; the worker's heartbeat pump beats from a separate
  thread, so a healthy worker deep inside a long trajectory still beats —
  a lease only ever expires for a dead, partitioned, or zombie worker.
* **Fencing epochs.**  The coordinator keeps one monotonically increasing
  epoch, persisted in ``leases.json`` through the same
  ``atomic_write_json`` path as the checkpoints.  Every lease carries the
  epoch it was granted under; expiring or losing a lease bumps the epoch, so
  a zombie worker that finishes its range *after* expiry submits results
  quoting a dead ``(lease, epoch)`` pair — rejected, journalled as
  ``result_rejected``, and never written to a worker journal.  A restarted
  coordinator (``--resume`` after SIGKILL) re-fences at ``stored epoch + 1``
  before granting anything, so results addressed to its predecessor are
  equally dead on arrival.
* **Per-worker journals, merged deterministically.**  Accepted
  ``entity_done`` records land in ``journal-<worker>.jsonl`` (fsync per
  record); coordinator decisions (grants, expiries, rejections, failures,
  quarantines) land in ``journal.jsonl``.  Resume and assembly read the
  whole set through :func:`~repro.orchestration.journal.merge_journals`,
  whose per-journal torn-tail rule and payload-conflict check keep the
  bit-identity guarantee: a migrated, resumed, or reassigned sweep produces
  a ``curve.jsonl`` byte-identical to an undisturbed single-host run,
  because every path converges on the same per-entity seeds and the same
  :func:`~repro.orchestration.orchestrator.assemble_result`.

Failed entities reuse the single-host retry machinery: each fenced or
failed attempt is charged, re-enqueued with linear backoff, and quarantined
after ``max_attempts``.  ``local_workers`` forks loopback worker
subprocesses (context shipped copy-on-write), so the whole cluster is
testable in one process tree; remote workers join with
``crowdfusion shard-worker --connect HOST:PORT``.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import multiprocessing

from repro.core.selection.parallel import (
    fork_available,
    register_shutdown_reaper,
    unregister_shutdown_reaper,
)
from repro.evaluation.experiment import EntityProblem, ExperimentConfig
from repro.evaluation.reporting import CurveStream
from repro.exceptions import OrchestrationError
from repro.orchestration import cluster_worker as _worker_module
from repro.orchestration import wire
from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    atomic_write_json,
    merge_journals,
    read_json,
)
from repro.orchestration.orchestrator import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    LOCK_NAME,
    OrchestratorReport,
    _fingerprint,
    _RunState,
    assemble_result,
    check_manifest,
    check_serial_runtime,
    entity_done_record,
)
from repro.orchestration.worker import trajectory_from_payload
from repro.service.api import MAX_LINE_BYTES

#: Atomic lease/epoch snapshot, sibling of the checkpoint.
LEASES_NAME = "leases.json"

#: Worker journal naming; ``merge_journals`` globs this prefix on resume.
WORKER_JOURNAL_PREFIX = "journal-"


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator knobs of one multi-host sweep.

    Attributes
    ----------
    run_dir:
        Per-run directory (same layout as the single-host orchestrator plus
        ``leases.json`` and per-worker journals).
    host / port:
        Listener bind address; ``port=0`` picks a free port (read it back
        from :attr:`ClusterReport.port` or the coordinator's stdout line).
    lease_ttl_s:
        A lease with no heartbeat for this long is fenced and reassigned.
    heartbeat_s:
        Beat interval handed to workers in the ``Welcome``; must be well
        under ``lease_ttl_s`` so one dropped beat is not a death sentence.
    lease_entities:
        Maximum contiguous entity indices per lease grant.
    max_attempts / retry_backoff_s / resume:
        Exactly the single-host semantics (fenced leases charge an attempt
        per pending entity).
    local_workers:
        Loopback worker subprocesses forked by the coordinator itself.
        ``0`` means the sweep waits for remote workers to connect.
    """

    run_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    lease_ttl_s: float = 10.0
    heartbeat_s: float = 2.0
    lease_entities: int = 4
    max_attempts: int = 3
    retry_backoff_s: float = 0.0
    resume: bool = False
    local_workers: int = 0

    def __post_init__(self) -> None:
        if not self.run_dir:
            raise OrchestrationError("run_dir must be a non-empty path")
        if self.lease_ttl_s <= 0:
            raise OrchestrationError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s}"
            )
        if self.heartbeat_s <= 0 or self.heartbeat_s >= self.lease_ttl_s:
            raise OrchestrationError(
                "heartbeat_s must sit strictly inside (0, lease_ttl_s); got "
                f"heartbeat_s={self.heartbeat_s}, lease_ttl_s={self.lease_ttl_s}"
            )
        if self.lease_entities < 1:
            raise OrchestrationError(
                f"lease_entities must be >= 1, got {self.lease_entities}"
            )
        if self.max_attempts < 1:
            raise OrchestrationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff_s < 0:
            raise OrchestrationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.local_workers < 0:
            raise OrchestrationError(
                f"local_workers must be >= 0, got {self.local_workers}"
            )


@dataclass
class ClusterStats:
    """Fencing and delivery counters of one coordinator run."""

    epoch: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    disconnects: int = 0
    results_accepted: int = 0
    results_rejected: int = 0
    duplicates_dropped: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "leases_granted": self.leases_granted,
            "leases_expired": self.leases_expired,
            "disconnects": self.disconnects,
            "results_accepted": self.results_accepted,
            "results_rejected": self.results_rejected,
            "duplicates_dropped": self.duplicates_dropped,
        }


@dataclass
class ClusterReport(OrchestratorReport):
    """Single-host report plus the cluster's fencing statistics."""

    stats: ClusterStats = field(default_factory=ClusterStats)
    port: int = 0


class _Conn:
    """One connected worker socket and its receive buffer."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.worker: Optional[str] = None
        self.lease: Optional[str] = None
        #: Set when this worker's lease was fenced for heartbeat expiry; a
        #: suspect worker gets no new lease until it proves it is reading
        #: again (any fresh heartbeat) — otherwise a zombie would churn
        #: through grants it cannot see yet.
        self.suspect = False


@dataclass
class _Lease:
    """One granted range and its fencing identity."""

    lease_id: str
    worker: str
    conn: _Conn
    epoch: int
    start: int
    stop: int
    deadline: float
    pending: Set[int] = field(default_factory=set)
    attempt_of: Dict[int, int] = field(default_factory=dict)


class _LocalWorkerPool:
    """Forks and reaps the coordinator's loopback worker subprocesses."""

    def __init__(self, count: int, host: str, port: int) -> None:
        context = multiprocessing.get_context("fork")
        self.processes = []
        for ordinal in range(count):
            process = context.Process(
                target=_worker_module.local_worker_main,
                args=(host, port, f"local-{ordinal}"),
                daemon=True,
            )
            process.start()
            self.processes.append(process)

    def reap_on_shutdown(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            if process.is_alive():
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck in syscall
                process.kill()
                process.join(timeout=1.0)

    def join(self, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        for process in self.processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        self.reap_on_shutdown()


def _safe_worker_name(worker: str) -> str:
    """Filesystem-safe journal suffix for a worker id."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in worker) or "worker"


def _payload_error(payload: Any) -> Optional[str]:
    """Why a result payload is no trajectory, or ``None`` when it decodes."""
    try:
        trajectory_from_payload(payload)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as error:
        return f"malformed result payload: {type(error).__name__}: {error}"
    return None


def worker_journal_paths(run_dir: str) -> List[str]:
    """Every per-worker journal currently present in ``run_dir``."""
    return sorted(
        os.path.join(run_dir, name)
        for name in os.listdir(run_dir)
        if name.startswith(WORKER_JOURNAL_PREFIX) and name.endswith(".jsonl")
    )


class _Coordinator:
    """The selector-driven event loop behind :func:`run_cluster_experiment`."""

    def __init__(
        self,
        problems: List[EntityProblem],
        config: ExperimentConfig,
        cluster: ClusterConfig,
        budget_overrides: Dict[str, int],
        state: _RunState,
        journal: JournalWriter,
    ) -> None:
        self.problems = problems
        self.config = config
        self.cluster = cluster
        self.budget_overrides = budget_overrides
        self.state = state
        self.journal = journal
        self.stats = ClusterStats()
        self.run_dir = cluster.run_dir
        self.checkpoint_path = os.path.join(self.run_dir, CHECKPOINT_NAME)
        self.leases_path = os.path.join(self.run_dir, LEASES_NAME)
        self.digest = wire.fingerprint_digest(
            _fingerprint(problems, config, budget_overrides)
        )
        #: Work queue: entity index -> (attempt number, earliest dispatch).
        self.queue: Dict[int, Tuple[int, float]] = {
            index: (state.attempts.get(index, 0) + 1, 0.0)
            for index in state.pending_indices()
        }
        self.active: Dict[str, _Lease] = {}
        self.worker_journals: Dict[str, JournalWriter] = {}
        self.selector = selectors.DefaultSelector()
        self.listener: Optional[socket.socket] = None
        self.port = 0
        # Re-fence: any lease the previous coordinator incarnation granted
        # is dead the moment this one starts at a strictly higher epoch.
        stored = read_json(self.leases_path)
        self.epoch = int(stored["epoch"]) + 1 if stored else 1
        self.stats.epoch = self.epoch
        self._persist_leases()

    # -- durability ---------------------------------------------------------------------

    def _journal(self, record: Dict[str, Any]) -> None:
        """Append one coordinator decision record, wall-clock stamped.

        The ``ts`` stamp never touches entity payloads (those live in the
        worker journals and must stay bit-reproducible); it exists so fault
        timelines — kill to expiry to re-grant — can be reconstructed from
        the decision log alone.
        """
        record["ts"] = time.time()
        self.journal.append(record)

    def _persist_leases(self) -> None:
        atomic_write_json(
            self.leases_path,
            {
                "epoch": self.epoch,
                "active": [
                    {
                        "lease": lease.lease_id,
                        "worker": lease.worker,
                        "epoch": lease.epoch,
                        "start": lease.start,
                        "stop": lease.stop,
                        "pending": sorted(lease.pending),
                    }
                    for lease in self.active.values()
                ],
                "stats": self.stats.to_payload(),
            },
        )

    def _checkpoint(self, status: str = "running") -> None:
        atomic_write_json(
            self.checkpoint_path, self.state.checkpoint_payload(status)
        )

    def _worker_journal(self, worker: str) -> JournalWriter:
        name = _safe_worker_name(worker)
        writer = self.worker_journals.get(name)
        if writer is None:
            path = os.path.join(
                self.run_dir, f"{WORKER_JOURNAL_PREFIX}{name}.jsonl"
            )
            writer = JournalWriter(path)
            self.worker_journals[name] = writer
        return writer

    # -- socket plumbing ----------------------------------------------------------------

    def bind(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.cluster.host, self.cluster.port))
        listener.listen(64)
        listener.setblocking(False)
        self.listener = listener
        self.port = listener.getsockname()[1]
        self.selector.register(listener, selectors.EVENT_READ, None)
        return self.port

    def _send(self, conn: _Conn, message: Any) -> bool:
        """Best-effort blocking send; ``False`` means the peer is gone."""
        try:
            conn.sock.settimeout(5.0)
            conn.sock.sendall(wire.encode_message(message))
            return True
        except OSError:
            return False
        finally:
            try:
                conn.sock.setblocking(False)
            except OSError:  # pragma: no cover - socket already dead
                pass

    def _accept(self) -> None:
        assert self.listener is not None
        try:
            sock, _address = self.listener.accept()
        except OSError:  # pragma: no cover - raced a dying client
            return
        sock.setblocking(False)
        conn = _Conn(sock)
        self.selector.register(sock, selectors.EVENT_READ, conn)
        # The worker may proactively disconnect before Hello; that is fine.

    def _drop_conn(self, conn: _Conn, reason: str) -> None:
        """Unregister a dead connection and fence whatever it was holding."""
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if conn.worker is not None:
            self.stats.disconnects += 1
            self._journal(
                {
                    "type": "worker_disconnected",
                    "worker": conn.worker,
                    "reason": reason,
                }
            )
        if conn.lease is not None and conn.lease in self.active:
            self._fence_lease(self.active[conn.lease], f"disconnect: {reason}")

    # -- fencing ------------------------------------------------------------------------

    def _fence_lease(self, lease: _Lease, reason: str) -> None:
        """Kill a lease: bump the epoch, re-enqueue its pending entities.

        Raising the global epoch *before* anything else means results the
        fenced worker sends from now on — and results any older zombie
        might still send — can never match an active ``(lease, epoch)``
        pair again.
        """
        self.epoch += 1
        self.stats.epoch = self.epoch
        self.stats.leases_expired += 1
        self.active.pop(lease.lease_id, None)
        if lease.conn.lease == lease.lease_id:
            lease.conn.lease = None
        self._journal(
            {
                "type": "lease_expired",
                "lease": lease.lease_id,
                "worker": lease.worker,
                "epoch": lease.epoch,
                "new_epoch": self.epoch,
                "reason": reason,
                "pending": sorted(lease.pending),
            }
        )
        # Best-effort courtesy: a partitioned-but-alive worker eventually
        # reads this and stops wasting cycles; a dead one never will.
        self._send(
            lease.conn,
            wire.LeaseRevoked(lease.lease_id, lease.epoch, reason),
        )
        for index in sorted(lease.pending):
            self._charge_failure(
                index,
                lease.attempt_of.get(index, 1),
                f"lease {lease.lease_id} fenced ({reason})",
            )
        self._persist_leases()

    def _charge_failure(self, index: int, attempt: int, message: str) -> None:
        entity = self.problems[index].entity
        self._journal(
            {
                "type": "entity_failed",
                "index": index,
                "entity": entity,
                "attempt": attempt,
                "error": message,
            }
        )
        self.state.attempts[index] = max(self.state.attempts.get(index, 0), attempt)
        if attempt >= self.cluster.max_attempts:
            record = {
                "type": "quarantined",
                "index": index,
                "entity": entity,
                "attempts": attempt,
                "error": message,
            }
            self._journal(record)
            self.state.quarantined[index] = record
            self._checkpoint()
        else:
            not_before = (
                time.monotonic() + self.cluster.retry_backoff_s * attempt
            )
            self.queue[index] = (attempt + 1, not_before)

    # -- message handling ---------------------------------------------------------------

    def _read_conn(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self._drop_conn(conn, f"recv failed: {error}")
            return
        if not data:
            self._drop_conn(conn, "connection closed by peer")
            return
        conn.buffer.extend(data)
        if len(conn.buffer) > MAX_LINE_BYTES:
            self._send(
                conn,
                wire.WireError("line_too_long", "wire line exceeds limit"),
            )
            self._drop_conn(conn, "oversized wire line")
            return
        while True:
            newline = conn.buffer.find(b"\n")
            if newline < 0:
                break
            line = bytes(conn.buffer[: newline + 1])
            del conn.buffer[: newline + 1]
            try:
                message = wire.decode_message(line)
            except wire.WireProtocolError as error:
                self._send(conn, wire.WireError("protocol_error", str(error)))
                self._drop_conn(conn, f"protocol error: {error}")
                return
            self._handle_message(conn, message)
            if conn.sock.fileno() < 0:
                return  # the handler dropped this connection

    def _handle_message(self, conn: _Conn, message: Any) -> None:
        if isinstance(message, wire.Hello):
            if message.fingerprint != self.digest:
                # A worker built for a different sweep would compute
                # different trajectories — refuse it before it gets work.
                self._send(
                    conn,
                    wire.WireError(
                        "fingerprint_mismatch",
                        "worker was configured for a different sweep",
                        retry_safe=False,
                    ),
                )
                self._drop_conn(conn, "fingerprint mismatch")
                return
            conn.worker = message.worker
            self._send(
                conn,
                wire.Welcome(
                    epoch=self.epoch,
                    heartbeat_s=self.cluster.heartbeat_s,
                    lease_ttl_s=self.cluster.lease_ttl_s,
                ),
            )
        elif isinstance(message, wire.Heartbeat):
            conn.suspect = False
            lease = self.active.get(message.lease)
            if (
                lease is not None
                and lease.epoch == message.epoch
                and lease.conn is conn
            ):
                lease.deadline = time.monotonic() + self.cluster.lease_ttl_s
        elif isinstance(message, wire.EntityResult):
            self._handle_result(conn, message)
        else:
            self._send(
                conn,
                wire.WireError(
                    "unexpected_message",
                    f"coordinator cannot accept {type(message).__name__}",
                ),
            )
            self._drop_conn(conn, f"unexpected {type(message).__name__}")

    def _handle_result(self, conn: _Conn, result: wire.EntityResult) -> None:
        lease = self.active.get(result.lease)
        if lease is None or lease.epoch != result.epoch or lease.conn is not conn:
            # The fencing check: a zombie quoting an expired (lease, epoch)
            # pair — or a hijacked lease id from another connection — is
            # rejected and its result never touches a worker journal.
            self.stats.results_rejected += 1
            self._journal(
                {
                    "type": "result_rejected",
                    "worker": result.worker,
                    "lease": result.lease,
                    "epoch": result.epoch,
                    "current_epoch": self.epoch,
                    "index": result.index,
                }
            )
            return
        if result.index not in lease.pending:
            # Inside an active lease but already answered: duplicated
            # delivery (retransmit or injected duplicate).  Drop silently
            # but account for it.
            self.stats.duplicates_dropped += 1
            self._journal(
                {
                    "type": "result_duplicate",
                    "worker": result.worker,
                    "lease": result.lease,
                    "index": result.index,
                }
            )
            return
        lease.pending.discard(result.index)
        lease.deadline = time.monotonic() + self.cluster.lease_ttl_s
        attempt = lease.attempt_of.get(result.index, 1)
        error = result.error or "worker reported failure"
        if result.ok and result.payload is not None:
            # The handshake pins the sweep, not the worker's code: a payload
            # that does not decode must never reach a worker journal.
            error = _payload_error(result.payload)
        if error is None:
            record = entity_done_record(
                self.problems, self.config, result.index, attempt, result.payload
            )
            record["worker"] = result.worker
            self._worker_journal(result.worker).append(record)
            self.state.completed[result.index] = record
            self.stats.results_accepted += 1
            self._checkpoint()
        else:
            self._charge_failure(result.index, attempt, error)
        if not lease.pending:
            self.active.pop(lease.lease_id, None)
            if conn.lease == lease.lease_id:
                conn.lease = None
            self._journal(
                {
                    "type": "lease_complete",
                    "lease": lease.lease_id,
                    "worker": lease.worker,
                }
            )
            self._persist_leases()

    # -- granting -----------------------------------------------------------------------

    def _pop_contiguous(self, now: float) -> Optional[List[int]]:
        """The next contiguous run of eligible entity indices, or ``None``."""
        eligible = sorted(
            index
            for index, (_attempt, not_before) in self.queue.items()
            if not_before <= now
        )
        if not eligible:
            return None
        run = [eligible[0]]
        for index in eligible[1:]:
            if len(run) >= self.cluster.lease_entities:
                break
            if index == run[-1] + 1:
                run.append(index)
            else:
                break
        return run

    def _grant_leases(self, now: float) -> None:
        for key in list(self.selector.get_map().values()):
            conn = key.data
            if conn is None or conn.worker is None:
                continue
            if conn.lease is not None or conn.suspect:
                continue
            run = self._pop_contiguous(now)
            if run is None:
                return
            lease_id = f"lease-{self.stats.leases_granted}-{uuid.uuid4().hex[:8]}"
            lease = _Lease(
                lease_id=lease_id,
                worker=conn.worker,
                conn=conn,
                epoch=self.epoch,
                start=run[0],
                stop=run[-1] + 1,
                deadline=now + self.cluster.lease_ttl_s,
                pending=set(run),
                attempt_of={index: self.queue[index][0] for index in run},
            )
            for index in run:
                del self.queue[index]
            self.active[lease_id] = lease
            conn.lease = lease_id
            self.stats.leases_granted += 1
            self._journal(
                {
                    "type": "lease_granted",
                    "lease": lease_id,
                    "worker": conn.worker,
                    "epoch": lease.epoch,
                    "start": lease.start,
                    "stop": lease.stop,
                    "attempts": {
                        str(i): lease.attempt_of[i] for i in sorted(run)
                    },
                }
            )
            self._persist_leases()
            if not self._send(
                conn,
                wire.LeaseGrant(
                    lease=lease_id,
                    epoch=lease.epoch,
                    start=lease.start,
                    stop=lease.stop,
                ),
            ):
                self._drop_conn(conn, "lease grant send failed")

    # -- the loop -----------------------------------------------------------------------

    def run(self) -> None:
        """Drive the sweep until every entity is completed or quarantined."""
        self._checkpoint()
        while self.queue or self.active:
            now = time.monotonic()
            self._grant_leases(now)
            timeout = 0.2
            if self.active:
                nearest = min(lease.deadline for lease in self.active.values())
                timeout = min(timeout, max(0.0, nearest - now))
            for key, _events in self.selector.select(timeout):
                if key.data is None:
                    self._accept()
                else:
                    self._read_conn(key.data)
            now = time.monotonic()
            for lease in list(self.active.values()):
                if lease.deadline <= now:
                    lease.conn.suspect = True
                    self._fence_lease(
                        lease,
                        f"no heartbeat for {self.cluster.lease_ttl_s:.3f}s",
                    )
        self._checkpoint("complete")
        self._persist_leases()
        self._journal(
            {"type": "cluster_stats", **self.stats.to_payload()}
        )
        for key in list(self.selector.get_map().values()):
            conn = key.data
            if conn is not None:
                self._send(conn, wire.Shutdown("sweep complete"))

    def close(self) -> None:
        for key in list(self.selector.get_map().values()):
            conn = key.data
            target = conn.sock if conn is not None else key.fileobj
            try:
                self.selector.unregister(target)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            try:
                target.close()
            except OSError:  # pragma: no cover
                pass
        self.selector.close()
        for writer in self.worker_journals.values():
            writer.close()


def run_cluster_experiment(
    problems: List[EntityProblem],
    config: ExperimentConfig,
    cluster: ClusterConfig,
    budgets: Optional[Mapping[str, int]] = None,
    stream: Optional[CurveStream] = None,
    on_listening: Optional[Any] = None,
) -> ClusterReport:
    """Run (or resume) a lease-fenced multi-host sweep and return its curve.

    ``on_listening`` (if given) is called with the bound port once the
    coordinator accepts connections — before any worker is awaited — so
    callers can advertise the endpoint (the CLI prints it for the smoke
    harness; tests use it to start loopback workers).
    """
    if not problems:
        raise OrchestrationError("cannot orchestrate an empty problem list")
    check_serial_runtime(config)
    if cluster.local_workers and not fork_available():
        raise OrchestrationError(
            "local cluster workers fork from the coordinator, which this "
            "platform does not support; use remote shard workers instead"
        )
    budget_overrides = dict(budgets or {})
    run_dir = cluster.run_dir
    os.makedirs(run_dir, exist_ok=True)

    with RunLock(os.path.join(run_dir, LOCK_NAME)):
        fingerprint = _fingerprint(problems, config, budget_overrides)
        check_manifest(run_dir, fingerprint, cluster.resume)

        state = _RunState(problems)
        journal_paths = [os.path.join(run_dir, JOURNAL_NAME)]
        journal_paths.extend(worker_journal_paths(run_dir))
        state.replay(merge_journals(journal_paths))
        resumed = len(state.completed)

        with JournalWriter(os.path.join(run_dir, JOURNAL_NAME)) as journal:
            coordinator = _Coordinator(
                list(problems), config, cluster, budget_overrides, state, journal
            )
            pool: Optional[_LocalWorkerPool] = None
            try:
                port = coordinator.bind()
                if on_listening is not None:
                    on_listening(port)
                if cluster.local_workers:
                    _worker_module._CLUSTER_CONTEXT = (
                        list(problems), config, budget_overrides
                    )
                    _worker_module._INHERITED_LISTENER = coordinator.listener
                    pool = _LocalWorkerPool(
                        cluster.local_workers, cluster.host, port
                    )
                    _worker_module._INHERITED_LISTENER = None
                    register_shutdown_reaper(pool)
                if state.pending_indices():
                    coordinator.run()
                else:
                    coordinator._checkpoint("complete")
                    coordinator.journal.append(
                        {"type": "cluster_stats", **coordinator.stats.to_payload()}
                    )
            finally:
                coordinator.close()
                if pool is not None:
                    unregister_shutdown_reaper(pool)
                    pool.join()
                    _worker_module._CLUSTER_CONTEXT = None

        result, quarantined = assemble_result(
            state, problems, config, run_dir, stream
        )
        return ClusterReport(
            result=result,
            run_dir=run_dir,
            completed=len(state.completed),
            resumed=resumed,
            quarantined=quarantined,
            stats=coordinator.stats,
            port=coordinator.port,
        )
