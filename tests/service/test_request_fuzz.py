"""Fuzz the service's request parser over one live TCP connection.

Each example takes a well-formed request for one session operation and
replaces one of its operands with an arbitrary JSON value.  Whatever the
value, the server must answer with exactly one response line — a success or
a typed service error — and the same connection must then answer ``ping``.
A request handler that dies on a bad operand leaves the client at EOF
instead.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crowd import CrowdModel
from repro.service import RefinementService, serve
from repro.service.api import ERROR_TYPES, encode_channel, encode_distribution
from repro.service.transport import bound_port
from tests.core.selection.test_persistent_pool import dense_distribution

#: Any JSON value: scalars (integers past the float range included — JSON
#: numbers are arbitrary precision), and small nested arrays and objects.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

#: The operands each fuzzed operation reads from its request.
OPERANDS = {
    "create_session": ("distribution", "channel", "budget", "selector", "retry"),
    "post_answers": ("session_id", "answers", "deadline_ms", "retry"),
    "select_next": ("session_id", "batch", "deadline_ms", "retry"),
    "get_posterior": ("session_id", "deadline_ms", "retry"),
    "close_session": ("session_id",),
}
CASES = [(op, operand) for op, operands in OPERANDS.items() for operand in operands]


class LiveServer:
    """An in-process service listening on loopback, on its own loop thread.

    One connection carries every example.  If a request kills the
    connection, the next example reconnects, so a failing example shrinks
    on a live connection too.
    """

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service, self.server = self._call(self._start())
        self._socket = self._stream = None
        #: One well-formed request per fuzzed operation (set by the fixture).
        self.requests = {}

    async def _start(self):
        service = RefinementService()
        return service, await serve(service, port=0)

    async def _stop(self):
        self.server.close()
        await self.server.wait_closed()
        await self.service.shutdown()

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(30)

    def exchange(self, request):
        """Send one request line; return the decoded response, or ``None``
        when the server closed the connection instead of answering."""
        if self._stream is None:
            port = bound_port(self.server)
            self._socket = socket.create_connection(("127.0.0.1", port), timeout=30)
            self._stream = self._socket.makefile("rwb")
        self._stream.write((json.dumps(request) + "\n").encode("utf-8"))
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            self._disconnect()
            return None
        return json.loads(line)

    def _disconnect(self):
        if self._stream is not None:
            self._stream.close()
            self._socket.close()
            self._stream = self._socket = None

    def close(self):
        self._disconnect()
        self._call(self._stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(scope="module")
def live():
    server = LiveServer()
    prior = dense_distribution(5, 24, seed=35)
    created = server.exchange(
        {
            "op": "create_session",
            "distribution": encode_distribution(prior),
            "channel": encode_channel(CrowdModel(0.8)),
            "budget": 10**6,
        }
    )
    session_id = created["result"]["session_id"]
    server.requests = {
        "create_session": {
            "distribution": encode_distribution(prior),
            "channel": encode_channel(CrowdModel(0.8)),
            "budget": 4,
            "selector": "greedy",
        },
        "post_answers": {"session_id": session_id, "answers": {"f0": True}},
        "select_next": {"session_id": session_id, "batch": 2},
        "get_posterior": {"session_id": session_id},
        "close_session": {"session_id": session_id},
    }
    yield server
    server.close()


@given(case=st.sampled_from(CASES), value=json_values)
@settings(max_examples=150, deadline=None)
def test_any_operand_value_gets_one_typed_response(live, case, value):
    op, operand = case
    request = {"op": op, **live.requests[op], operand: value}
    response = live.exchange(request)
    assert response is not None, f"connection dropped on {op} {operand}={value!r}"
    assert isinstance(response, dict)
    if not response["ok"]:
        assert response["error"]["code"] in ERROR_TYPES, response
    pong = live.exchange({"op": "ping"})
    assert pong is not None and pong["result"]["pong"]
