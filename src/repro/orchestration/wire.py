"""Wire protocol of the multi-host cluster orchestrator.

The coordinator and its shard workers speak the same JSON-lines framing as
the refinement service transport (:mod:`repro.service.transport`): one JSON
object per ``\\n``-terminated line, bounded by the service's
``MAX_LINE_BYTES``.  Every message carries a ``"type"`` discriminator and is
defined here as a frozen dataclass, so both sides share one source of truth
for field names and the codec refuses unknown or malformed messages loudly
(``WireProtocolError``) instead of guessing.

Message flow::

    worker                         coordinator
    ------                         -----------
    Hello(worker, fingerprint) ->
                                <- Welcome(epoch, heartbeat_s, lease_ttl_s)
                                <- LeaseGrant(lease, epoch, start, stop)
    Heartbeat(worker, lease, epoch) ->        (repeating, daemon thread)
    EntityResult(worker, lease, epoch, index, ok, payload|error) ->
                                <- LeaseRevoked(lease, epoch, reason)   (fencing)
                                <- Shutdown(reason)                     (sweep done)
                                <- WireError(code, message, retry_safe) (refusal)

Fencing is carried entirely by ``(lease, epoch)``: results and heartbeats
quoting a lease the coordinator no longer considers active — or an epoch
older than the lease's grant epoch — are rejected and never journalled.

:class:`MessageStream` is the blocking socket wrapper both sides use.  Sends
are serialised under a lock because a worker's heartbeat thread and its main
loop share one socket; the ``wire_send`` fault point can tear a send in half
and abort the connection (:mod:`repro.testing.faults` directive ``"drop"``),
which is what a cut network looks like from the peer's side.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.exceptions import OrchestrationError
from repro.service.api import MAX_LINE_BYTES, decode_json_line
from repro.testing import faults


class WireProtocolError(OrchestrationError):
    """A peer sent bytes this protocol cannot interpret."""


class ConnectionLost(OrchestrationError):
    """The peer vanished mid-conversation (EOF, reset, injected drop)."""


@dataclass(frozen=True)
class Hello:
    """Worker's opening handshake: who it is and which sweep it was built for.

    ``fingerprint`` is the digest of the run manifest fingerprint — workers
    rebuild problems and config from their own CLI flags, so the digest is
    how a worker pointed at the wrong sweep is refused instead of silently
    computing different trajectories.
    """

    worker: str
    fingerprint: str


@dataclass(frozen=True)
class Welcome:
    """Coordinator's handshake reply: current epoch and liveness contract."""

    epoch: int
    heartbeat_s: float
    lease_ttl_s: float


@dataclass(frozen=True)
class LeaseGrant:
    """A contiguous entity-index range ``[start, stop)`` leased to one worker."""

    lease: str
    epoch: int
    start: int
    stop: int


@dataclass(frozen=True)
class Heartbeat:
    """Worker liveness beacon; keeps its lease from expiring."""

    worker: str
    lease: str
    epoch: int


@dataclass(frozen=True)
class EntityResult:
    """One finished entity: the trajectory payload, or the failure message."""

    worker: str
    lease: str
    epoch: int
    index: int
    ok: bool
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class LeaseRevoked:
    """Coordinator fenced a lease; the worker must drop its remaining range."""

    lease: str
    epoch: int
    reason: str


@dataclass(frozen=True)
class Shutdown:
    """Sweep over (or coordinator exiting): the worker should disconnect."""

    reason: str


@dataclass(frozen=True)
class WireError:
    """Typed refusal, mirroring the service error payload shape."""

    code: str
    message: str
    retry_safe: bool = False


_MESSAGE_TYPES: Dict[str, Type[Any]] = {
    "hello": Hello,
    "welcome": Welcome,
    "lease_grant": LeaseGrant,
    "heartbeat": Heartbeat,
    "entity_result": EntityResult,
    "lease_revoked": LeaseRevoked,
    "shutdown": Shutdown,
    "error": WireError,
}

_TYPE_NAMES: Dict[Type[Any], str] = {cls: name for name, cls in _MESSAGE_TYPES.items()}


def encode_message(message: Any) -> bytes:
    """One wire line for ``message``: compact JSON plus the trailing newline.

    The body reads the fields in place: ``dataclasses.asdict`` would
    deep-copy every result payload just to serialise it.
    """
    name = _TYPE_NAMES.get(type(message))
    if name is None:
        raise WireProtocolError(f"not a wire message: {type(message).__name__}")
    body = {"type": name}
    for field in dataclasses.fields(message):
        body[field.name] = getattr(message, field.name)
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


#: JSON values each field annotation accepts.  ``bool`` is a subclass of
#: ``int`` in Python, so only ``bool`` fields accept it.
_FIELD_TYPES: Dict[str, Tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "Optional[str]": (str, type(None)),
    "Optional[Dict[str, Any]]": (dict, type(None)),
}


def _field_value_ok(annotation: str, value: Any) -> bool:
    if isinstance(value, bool) and annotation != "bool":
        return False
    return isinstance(value, _FIELD_TYPES[annotation])


def decode_message(line: bytes) -> Any:
    """Parse one wire line back into its dataclass; loud on anything else.

    Every field must carry the JSON type its annotation declares, so a
    handler never meets, say, a list where it hashes a lease id.
    """
    try:
        body = decode_json_line(line)
    except ValueError as error:
        raise WireProtocolError(f"malformed wire line: {error}")
    if not isinstance(body, dict):
        raise WireProtocolError("a wire message must be a JSON object")
    name = body.pop("type", None)
    if not isinstance(name, str):
        raise WireProtocolError(
            f"wire message type must be a string, got {type(name).__name__}"
        )
    cls = _MESSAGE_TYPES.get(name)
    if cls is None:
        raise WireProtocolError(f"unknown wire message type {name!r}")
    fields = {field.name: field.type for field in dataclasses.fields(cls)}
    unknown = set(body) - set(fields)
    if unknown:
        raise WireProtocolError(
            f"unknown fields {sorted(unknown)} in wire message {name!r}"
        )
    for key, value in body.items():
        if not _field_value_ok(fields[key], value):
            raise WireProtocolError(
                f"field {key!r} of wire message {name!r} must be "
                f"{fields[key]}, got {type(value).__name__}"
            )
    try:
        return cls(**body)
    except TypeError as error:
        raise WireProtocolError(f"incomplete wire message {name!r}: {error}")


def fingerprint_digest(fingerprint: Mapping[str, Any]) -> str:
    """Stable digest of a run-manifest fingerprint for the Hello handshake."""
    import hashlib

    canonical = json.dumps(dict(fingerprint), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class MessageStream:
    """Blocking message framing over one connected socket.

    Reading uses a buffered binary file so partial lines accumulate until
    the newline arrives; writing serialises under a lock because the shard
    worker's heartbeat thread shares the socket with its main loop.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.closed = False

    def send(self, message: Any) -> None:
        data = encode_message(message)
        if len(data) > MAX_LINE_BYTES:
            raise WireProtocolError(
                f"wire message of {len(data)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte line limit"
            )
        with self._send_lock:
            if self.closed:
                raise ConnectionLost("connection already closed")
            if faults.fire("wire_send") == "drop":
                # Injected mid-record connection drop: ship a torn prefix,
                # then abort without a FIN handshake — the peer sees a torn
                # line and a reset, exactly like a cut network.
                try:
                    self._sock.sendall(data[: max(1, len(data) // 2)])
                    self._sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00",
                    )
                except OSError:  # pragma: no cover - peer already gone
                    pass
                self._close_socket()
                raise ConnectionLost("connection dropped (injected)")
            try:
                self._sock.sendall(data)
            except OSError as error:
                self._close_socket()
                raise ConnectionLost(f"send failed: {error}")

    def recv(self) -> Any:
        """Block for the next message; :class:`ConnectionLost` on EOF/reset."""
        try:
            line = self._reader.readline(MAX_LINE_BYTES + 1)
        except OSError as error:
            raise ConnectionLost(f"recv failed: {error}")
        if not line:
            raise ConnectionLost("connection closed by peer")
        if not line.endswith(b"\n"):
            # Either the peer died mid-line (torn tail) or the line exceeds
            # the limit; both end the conversation.
            raise ConnectionLost("torn or oversized wire line")
        return decode_message(line)

    def close(self) -> None:
        with self._send_lock:
            self._close_socket()

    def _close_socket(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._reader.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "MessageStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
