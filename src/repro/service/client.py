"""Asyncio client for the refinement service's JSON-lines transport.

The client mirrors the server API one to one and re-raises wire errors as
their typed :class:`~repro.service.api.ServiceError` subclasses, so calling
code handles a remote service exactly like an in-process
:class:`~repro.service.server.RefinementService`.

Resilience model (:class:`RetryPolicy`):

* **Server-declared retry-safe errors** — overload (429) and deadline
  expiry (504) — are retried for *every* operation with exponential backoff
  plus jitter: the server has promised no state changed, so resending cannot
  double-merge.
* **Transport failures** (connection reset, EOF mid-response, torn line) are
  wrapped in :class:`~repro.service.transport.TransportError` with the
  session id attached.  They carry *no* such promise — the request may have
  been applied before the connection died — so the client reconnects and
  retries only **idempotent reads** (``select_next``, ``get_posterior``,
  ``metrics``, ``ping``); state-changing calls surface the error to the
  caller, preserving at-most-once merge semantics.

Retried requests carry a ``retry`` attempt counter on the wire, which the
server counts into its ``client_retries`` metric.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.service.api import (
    MAX_LINE_BYTES,
    MergeReport,
    PosteriorView,
    SelectionReply,
    ServiceError,
    SessionClosed,
    SessionCreated,
    decode_json_line,
    encode_answers,
    encode_channel,
    encode_distribution,
    raise_from_payload,
)
from repro.service.transport import TransportError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for retry-safe failures.

    ``delay(attempt)`` grows as ``base_delay × multiplier^attempt`` capped at
    ``max_delay``, then spread by ``±jitter`` (a fraction) so a fleet of
    clients bounced by one overload burst does not resynchronise into the
    next one.  ``max_retries=0`` disables retrying entirely.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be at least 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter:
            delay *= 1.0 + random.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)


#: No retries at all — the pre-resilience behaviour, handy in tests.
NO_RETRY = RetryPolicy(max_retries=0)


class ServiceClient:
    """One JSON-lines connection to a refinement service.

    Requests on one client are serialised by an internal lock (the wire
    protocol is strictly request/response per connection); open several
    clients for concurrent tenants.  Clients built via :meth:`connect` can
    transparently reconnect after a transport failure; clients wrapping a
    caller-supplied stream pair cannot (they don't know the address).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        retry: Optional[RetryPolicy] = None,
    ):
        self._reader: Optional[asyncio.StreamReader] = reader
        self._writer: Optional[asyncio.StreamWriter] = writer
        self._retry = retry if retry is not None else RetryPolicy()
        self._address: "Optional[tuple[str, int]]" = None
        self._lock = asyncio.Lock()
        #: Requests this client re-sent (all causes), for caller observability.
        self.retries = 0
        #: Successful transparent reconnects after a transport failure.
        self.reconnects = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, retry: Optional[RetryPolicy] = None
    ) -> "ServiceClient":
        # Server responses (posteriors especially) are bounded by
        # MAX_LINE_BYTES, far past asyncio's default 64 KiB readline limit.
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        client = cls(reader, writer, retry)
        client._address = (host, port)
        return client

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - peer vanished
            pass

    # -- the wire loop -----------------------------------------------------------------

    def _drop_connection(self) -> None:
        """Forget a dead stream pair so the next round trip reconnects."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already torn down
                pass

    async def _ensure_connection(self, session_id: Optional[str]) -> None:
        if self._writer is not None:
            return
        if self._address is None:
            raise TransportError(
                "the connection is closed and this client has no address to "
                "reconnect to",
                session_id,
            )
        host, port = self._address
        try:
            self._reader, self._writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
        except OSError as error:
            raise TransportError(
                f"reconnect to {host}:{port} failed: {error}", session_id
            ) from error
        self.reconnects += 1

    async def _roundtrip(
        self, request: Mapping[str, Any], session_id: Optional[str]
    ) -> Dict[str, Any]:
        """One request/response exchange; stream failures become TransportError."""
        await self._ensure_connection(session_id)
        try:
            self._writer.write((json.dumps(dict(request)) + "\n").encode("utf-8"))
            await self._writer.drain()
            line = await self._reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as error:
            self._drop_connection()
            raise TransportError(
                f"connection failed mid-request: {error!r}", session_id
            ) from error
        if not line:
            self._drop_connection()
            raise TransportError("the service closed the connection", session_id)
        try:
            response = decode_json_line(line)
        except ValueError as error:
            # A torn or undecodable response line (the peer died mid-write)
            # is a transport failure, not a protocol error.
            self._drop_connection()
            raise TransportError(
                f"the service sent a torn response line: {error}", session_id
            ) from error
        if not response.get("ok"):
            raise_from_payload(response.get("error", {}))
        return response.get("result", {})

    async def _call(
        self,
        request: Mapping[str, Any],
        *,
        idempotent: bool = False,
        session_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        attempt = 0
        async with self._lock:
            while True:
                wire_request = dict(request)
                if attempt:
                    wire_request["retry"] = attempt
                try:
                    return await self._roundtrip(wire_request, session_id)
                except TransportError:
                    # No server verdict: the request may have been applied.
                    # Only idempotent reads may go again (after reconnect).
                    if (
                        not idempotent
                        or self._address is None
                        or attempt >= self._retry.max_retries
                    ):
                        raise
                except ServiceError as error:
                    # The server's explicit promise that nothing changed is
                    # the only licence to resend a state-changing request.
                    if not getattr(error, "retry_safe", False):
                        raise
                    if attempt >= self._retry.max_retries:
                        raise
                self.retries += 1
                await asyncio.sleep(self._retry.delay(attempt))
                attempt += 1

    # -- the session API ---------------------------------------------------------------

    async def create_session(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        budget: int,
        selector: str = "greedy_prune_pre",
    ) -> SessionCreated:
        return SessionCreated.from_payload(
            await self._call(
                {
                    "op": "create_session",
                    "distribution": encode_distribution(distribution),
                    "channel": encode_channel(channel),
                    "budget": budget,
                    "selector": selector,
                }
            )
        )

    async def post_answers(
        self,
        session_id: str,
        answers: Union[AnswerSet, Mapping[str, bool]],
        deadline_ms: Optional[int] = None,
    ) -> MergeReport:
        payload = (
            encode_answers(answers)
            if isinstance(answers, AnswerSet)
            else {str(fact_id): bool(value) for fact_id, value in answers.items()}
        )
        request: Dict[str, Any] = {
            "op": "post_answers",
            "session_id": session_id,
            "answers": payload,
        }
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return MergeReport.from_payload(
            await self._call(request, session_id=session_id)
        )

    async def select_next(
        self, session_id: str, batch: int = 1, deadline_ms: Optional[int] = None
    ) -> SelectionReply:
        request: Dict[str, Any] = {
            "op": "select_next",
            "session_id": session_id,
            "batch": batch,
        }
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return SelectionReply.from_payload(
            await self._call(request, idempotent=True, session_id=session_id)
        )

    async def get_posterior(
        self, session_id: str, deadline_ms: Optional[int] = None
    ) -> PosteriorView:
        request: Dict[str, Any] = {"op": "get_posterior", "session_id": session_id}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return PosteriorView.from_payload(
            await self._call(request, idempotent=True, session_id=session_id)
        )

    async def close_session(self, session_id: str) -> SessionClosed:
        return SessionClosed.from_payload(
            await self._call(
                {"op": "close_session", "session_id": session_id},
                session_id=session_id,
            )
        )

    async def metrics(self) -> Dict[str, Any]:
        return await self._call({"op": "metrics"}, idempotent=True)

    async def ping(self) -> Dict[str, Any]:
        return await self._call({"op": "ping"}, idempotent=True)
