"""Shard worker for the multi-host cluster orchestrator.

A cluster worker connects to the coordinator over TCP, proves with a
fingerprint digest that it was built for the same sweep, then serves
:class:`~repro.orchestration.wire.LeaseGrant` ranges: each granted entity
index runs through the exact
:func:`~repro.evaluation.experiment.run_entity_trajectory` unit every other
execution path uses (identical per-entity seed derivation), and its
JSON-ready trajectory is sent back as an
:class:`~repro.orchestration.wire.EntityResult`.

Liveness is a daemon *heartbeat pump* thread: the main loop may spend many
seconds inside one entity trajectory, so heartbeats must not wait for it.
The pump shares the socket with the main loop (sends are serialised inside
:class:`~repro.orchestration.wire.MessageStream`) and beats even between
leases, so the coordinator can tell an idle worker from a dead one.  A
worker that loses its connection retries for a bounded reconnect window —
long enough to ride out a coordinator restart (`--resume`), short enough
that an orphaned worker whose coordinator is gone for good exits by itself
instead of leaking.

The same entry point serves both deployment shapes: a remote process started
by ``crowdfusion shard-worker --connect HOST:PORT`` (problems and config
rebuilt from its own CLI flags, checked via the fingerprint digest) and a
local subprocess forked by the coordinator for loopback parallelism
(context inherited copy-on-write through :data:`_CLUSTER_CONTEXT`).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.evaluation.experiment import (
    EntityProblem,
    ExperimentConfig,
    run_entity_trajectory,
)
from repro.exceptions import OrchestrationError
from repro.orchestration import wire
from repro.orchestration.worker import trajectory_to_payload
from repro.testing import faults

#: Work published to coordinator-forked local workers before the fork:
#: ``(problems, config, budget_overrides)``.
_CLUSTER_CONTEXT: Optional[
    Tuple[List[EntityProblem], ExperimentConfig, Dict[str, int]]
] = None

#: The coordinator's listening socket, published just before local workers
#: fork.  Each child must close its inherited copy first thing: a leaked
#: listen fd would keep the port accepting handshakes after the coordinator
#: dies, so orphaned workers would "reconnect" into a backlog nobody serves
#: and block in recv() forever instead of expiring their reconnect window.
_INHERITED_LISTENER: Optional[socket.socket] = None

#: How long a disconnected worker keeps trying to reach the coordinator
#: before giving up — the window that lets workers survive a coordinator
#: SIGKILL + ``--resume`` without being leaked forever if the coordinator
#: never comes back.
DEFAULT_RECONNECT_WINDOW_S = 15.0

_CONNECT_RETRY_S = 0.2

#: Bound on one dial of the coordinator.  It covers the connect only: an
#: idle worker may wait any time for its next grant, and a dead coordinator
#: still shows up as EOF or a reset.
_DIAL_TIMEOUT_S = 5.0


@dataclass
class WorkerSummary:
    """What one worker did before the coordinator sent it home."""

    worker: str
    entities_ok: int = 0
    entities_failed: int = 0
    leases_served: int = 0
    reconnects: int = 0


class _HeartbeatPump:
    """Daemon thread beating ``heartbeat_s`` while the main loop computes."""

    def __init__(
        self, stream: wire.MessageStream, worker: str, heartbeat_s: float
    ) -> None:
        self._stream = stream
        self._worker = worker
        self._heartbeat_s = heartbeat_s
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._lease = ""
        self._epoch = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def set_lease(self, lease: str, epoch: int) -> None:
        with self._lock:
            self._lease = lease
            self._epoch = epoch

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self._heartbeat_s):
            directive = faults.fire("heartbeat", worker=self._worker)
            if directive == "suppress":
                continue  # injected zombie: alive, computing, silent
            with self._lock:
                lease, epoch = self._lease, self._epoch
            try:
                self._stream.send(wire.Heartbeat(self._worker, lease, epoch))
            except (wire.ConnectionLost, wire.WireProtocolError):
                return  # the main loop will see the dead socket too


def _connect(host: str, port: int, deadline: float) -> socket.socket:
    """Dial the coordinator, retrying until ``deadline``.

    The socket comes back blocking, with no timeout, and with Nagle's
    algorithm off: a result must not wait for the coordinator's delayed ACK.
    """
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=_DIAL_TIMEOUT_S)
        except OSError as error:
            if time.monotonic() >= deadline:
                raise OrchestrationError(
                    f"could not reach coordinator at {host}:{port} "
                    f"within the reconnect window: {error}"
                )
            time.sleep(_CONNECT_RETRY_S)
            continue
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def run_shard_worker(
    problems: List[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Dict[str, int],
    host: str,
    port: int,
    worker_id: str,
    reconnect_window_s: float = DEFAULT_RECONNECT_WINDOW_S,
) -> WorkerSummary:
    """Serve lease grants from the coordinator until it says shutdown.

    Returns a :class:`WorkerSummary` on a clean shutdown; raises
    :class:`OrchestrationError` when ``config`` asks for parallel scans or
    entity fan-out (a worker runs its entities serially), when the
    coordinator refuses the handshake (wrong sweep) or when it stays
    unreachable past the reconnect window.
    """
    from repro.orchestration.orchestrator import _fingerprint, check_serial_runtime

    check_serial_runtime(config)
    digest = wire.fingerprint_digest(
        _fingerprint(problems, config, dict(budget_overrides))
    )
    summary = WorkerSummary(worker=worker_id)
    deadline = time.monotonic() + reconnect_window_s
    while True:
        try:
            sock = _connect(host, port, deadline)
        except OrchestrationError:
            if summary.leases_served or summary.entities_ok:
                # The coordinator went away for good after we did real work —
                # a normal end of life for an orphan riding out a resume.
                return summary
            raise
        stream = wire.MessageStream(sock)
        pump: Optional[_HeartbeatPump] = None
        try:
            stream.send(wire.Hello(worker=worker_id, fingerprint=digest))
            welcome = stream.recv()
            if isinstance(welcome, wire.WireError):
                raise OrchestrationError(
                    f"coordinator refused worker {worker_id}: "
                    f"{welcome.code}: {welcome.message}"
                )
            if not isinstance(welcome, wire.Welcome):
                raise wire.WireProtocolError(
                    f"expected welcome, got {type(welcome).__name__}"
                )
            pump = _HeartbeatPump(stream, worker_id, welcome.heartbeat_s)
            pump.start()
            # Connected: future disconnects get a fresh reconnect window.
            deadline = time.monotonic() + reconnect_window_s
            if _serve(stream, pump, problems, config, budget_overrides, summary):
                return summary
        except (wire.ConnectionLost, wire.WireProtocolError):
            summary.reconnects += 1
            time.sleep(_CONNECT_RETRY_S)
        finally:
            if pump is not None:
                pump.stop()
            stream.close()


def _serve(
    stream: wire.MessageStream,
    pump: _HeartbeatPump,
    problems: List[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Dict[str, int],
    summary: WorkerSummary,
) -> bool:
    """One connection's message loop; ``True`` on a clean shutdown."""
    while True:
        message = stream.recv()
        if isinstance(message, wire.LeaseGrant):
            pump.set_lease(message.lease, message.epoch)
            summary.leases_served += 1
            for index in range(message.start, message.stop):
                try:
                    faults.fire("shard_entity", index=index)
                    trajectory = run_entity_trajectory(
                        problems[index], index, config, budget_overrides
                    )
                except BaseException as error:  # noqa: BLE001 - reported upstream
                    result = wire.EntityResult(
                        worker=summary.worker,
                        lease=message.lease,
                        epoch=message.epoch,
                        index=index,
                        ok=False,
                        error=f"{type(error).__name__}: {error}",
                    )
                    summary.entities_failed += 1
                else:
                    result = wire.EntityResult(
                        worker=summary.worker,
                        lease=message.lease,
                        epoch=message.epoch,
                        index=index,
                        ok=True,
                        payload=trajectory_to_payload(trajectory),
                    )
                    summary.entities_ok += 1
                directive = faults.fire("entity_result_send", index=index)
                stream.send(result)
                if directive == "duplicate":
                    stream.send(result)  # injected duplicated delivery
            pump.set_lease("", 0)
        elif isinstance(message, wire.LeaseRevoked):
            # Ranges run synchronously inside the grant handler, so by the
            # time a revocation is read the range is already finished (its
            # late results were fenced server-side); nothing to unwind.
            pump.set_lease("", 0)
        elif isinstance(message, wire.Shutdown):
            return True
        elif isinstance(message, wire.WireError):
            raise OrchestrationError(
                f"coordinator error: {message.code}: {message.message}"
            )
        else:
            raise wire.WireProtocolError(
                f"unexpected message {type(message).__name__} from coordinator"
            )


def local_worker_main(host: str, port: int, worker_id: str) -> None:
    """Entry point of a coordinator-forked local worker subprocess."""
    if _INHERITED_LISTENER is not None:
        try:
            _INHERITED_LISTENER.close()
        except OSError:  # pragma: no cover - nothing left to leak
            pass
    assert _CLUSTER_CONTEXT is not None, "local worker forked without context"
    problems, config, budget_overrides = _CLUSTER_CONTEXT
    try:
        run_shard_worker(problems, config, budget_overrides, host, port, worker_id)
    except OrchestrationError:
        # An orphaned or refused local worker must exit quietly: the
        # coordinator (or its successor) owns all reporting.
        pass
