"""JSON-lines TCP front end for the refinement service.

One request per line, one response per line — the simplest transport that
exercises the full service surface without any dependency beyond the
standard library.  A request is ``{"op": ..., ...operands}``; a response is
``{"ok": true, "result": {...}}`` or ``{"ok": false, "error": {"code",
"status", "message", "retry_safe"}}`` with the typed error codes from
:mod:`repro.service.api`.  Connections are independent: any client may
address any session id, so a tenant can reconnect without losing state.

Requests may carry two optional resilience fields: ``deadline_ms`` (a
per-request budget the service enforces at its retry-safe points) and
``retry`` (the client's attempt counter for a resent request, counted into
the service's ``client_retries`` metric so operators see retry storms from
the server side).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional

from repro.service.api import (
    MAX_LINE_BYTES,
    ServiceError,
    ValidationFailedError,
    decode_channel,
    decode_distribution,
    decode_json_line,
    error_payload,
)
from repro.service.server import RefinementService
from repro.testing import faults


class TransportError(ServiceError):
    """The connection failed mid-conversation, with no response decoded.

    Wraps the bare stream failures (``ConnectionResetError``,
    ``IncompleteReadError``, an EOF in place of a response line) in the
    service's typed hierarchy, carrying the session id the request addressed
    so callers can log and recover without string-parsing OS errors.

    **Not retry-safe**: the connection died after the request may already
    have reached the server, so a state-changing request (a merge) may have
    been applied.  Clients may transparently retry *idempotent reads* after
    reconnecting; anything else must surface to the caller.
    """

    code = "transport_error"
    status = 503
    retry_safe = False

    def __init__(self, message: str, session_id: Optional[str] = None):
        super().__init__(message)
        self.session_id = session_id


def _deadline_ms(request: Mapping[str, Any]) -> Optional[int]:
    value = request.get("deadline_ms")
    return None if value is None else int(value)


async def _dispatch(service: RefinementService, request: Mapping[str, Any]) -> Any:
    """Route one decoded request to the service and return its payload."""
    op = request.get("op")
    if int(request.get("retry", 0)) > 0:
        service._metrics.client_retries += 1
    if op == "create_session":
        created = await service.create_session(
            decode_distribution(request.get("distribution", {})),
            decode_channel(request.get("channel", {})),
            budget=int(request.get("budget", 0)),
            selector=str(request.get("selector", "greedy_prune_pre")),
        )
        return created.to_payload()
    if op == "post_answers":
        report = await service.post_answers(
            str(request.get("session_id")),
            request.get("answers", {}),
            deadline_ms=_deadline_ms(request),
        )
        return report.to_payload()
    if op == "select_next":
        reply = await service.select_next(
            str(request.get("session_id")),
            batch=int(request.get("batch", 1)),
            deadline_ms=_deadline_ms(request),
        )
        return reply.to_payload()
    if op == "get_posterior":
        view = await service.get_posterior(
            str(request.get("session_id")), deadline_ms=_deadline_ms(request)
        )
        return view.to_payload()
    if op == "close_session":
        closed = await service.close_session(str(request.get("session_id")))
        return closed.to_payload()
    if op == "metrics":
        return service.metrics()
    if op == "ping":
        return {"pong": True, "sessions_live": service.sessions_live}
    raise ValidationFailedError(f"unknown op {op!r}")


async def _handle_connection(
    service: RefinementService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                response = {
                    "ok": False,
                    "error": error_payload(
                        ValidationFailedError("request line too long")
                    ),
                }
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                break
            if not line:
                break
            response: Dict[str, Any]
            try:
                request = decode_json_line(line)
                if not isinstance(request, dict):
                    raise ValidationFailedError("a request must be a JSON object")
                response = {"ok": True, "result": await _dispatch(service, request)}
            except ServiceError as error:
                response = {"ok": False, "error": error_payload(error)}
            except (TypeError, ValueError, OverflowError) as error:
                # ValueError covers JSONDecodeError, UnicodeDecodeError and
                # nesting past the parser's recursion limit; OverflowError
                # is a JSON number past the float range.
                response = {
                    "ok": False,
                    "error": error_payload(
                        ValidationFailedError(f"malformed request: {error}")
                    ),
                }
            payload = (json.dumps(response) + "\n").encode("utf-8")
            if faults.fire("transport_response") == "drop":
                # Injected mid-response connection drop: ship a torn prefix
                # and abort the transport (no FIN handshake), which is what a
                # crashed server or cut network looks like to the client.
                writer.write(payload[: max(1, len(payload) // 2)])
                await writer.drain()
                writer.transport.abort()
                return
            writer.write(payload)
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - peer vanished
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight handlers while they drain;
            # the connection is already closed, so end the task quietly.
            pass


async def serve(
    service: RefinementService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Start the JSON-lines listener; ``port=0`` picks a free port.

    The caller owns both lifetimes: close the returned server to stop
    accepting connections, then ``await service.shutdown()`` to drain
    sessions, flush their snapshots and stop the executor threads.
    """
    return await asyncio.start_server(
        lambda reader, writer: _handle_connection(service, reader, writer),
        host=host,
        port=port,
        limit=MAX_LINE_BYTES,
    )


def bound_port(server: asyncio.AbstractServer) -> int:
    """The port a ``serve(..., port=0)`` listener actually bound."""
    return server.sockets[0].getsockname()[1]
