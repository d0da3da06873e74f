"""Client-side resilience: reconnects, backoff, and the retry taxonomy.

The client may resend a request only when doing so cannot double-apply it:
server-declared retry-safe errors (nothing changed server-side) for every
operation, transport failures only for idempotent reads after reconnecting.
State-changing calls that lose their connection surface a typed
:class:`TransportError` carrying the session id — these tests also show
*why*: the lost response may cover a merge that did apply.
"""

import asyncio

import pytest

from repro.core.crowd import CrowdModel
from repro.service import (
    NO_RETRY,
    DeadlineExceededError,
    RefinementService,
    RetryPolicy,
    ServiceClient,
    TransportError,
    serve,
)
from repro.service.transport import bound_port
from repro.testing import faults
from repro.testing.faults import FaultPlan

from tests.core.selection.test_persistent_pool import dense_distribution


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


async def _with_server(scenario):
    service = RefinementService()
    server = await serve(service, port=0)
    try:
        return await scenario(service, bound_port(server))
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_delay_grows_exponentially_within_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0, jitter=0.5)
        for attempt, nominal in ((0, 0.1), (1, 0.2), (2, 0.4), (5, 1.0)):
            for _ in range(20):
                delay = policy.delay(attempt)
                assert nominal * 0.5 - 1e-12 <= delay <= nominal * 1.5 + 1e-12

    def test_zero_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay=0.05, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.05)
        assert policy.delay(1) == pytest.approx(0.1)

    def test_no_retry_sentinel(self):
        assert NO_RETRY.max_retries == 0


def test_idempotent_read_survives_a_dropped_connection():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=50)
        client = await ServiceClient.connect(
            "127.0.0.1", port, retry=RetryPolicy(max_retries=2, base_delay=0.01)
        )
        async with client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            # Drop the connection midway through the next response (the
            # select): the client must reconnect and transparently resend.
            with faults.injected(
                FaultPlan(drop_connection_after_responses=1, drop_limit=1)
            ):
                reply = await client.select_next(created.session_id, batch=2)
            assert reply.task_ids
            assert client.reconnects == 1
            assert client.retries == 1
            # The resent request carried its attempt counter onto the wire.
            assert service.metrics()["recovery"]["client_retries"] == 1

    run(_with_server(scenario))


def test_state_changing_call_surfaces_transport_error_with_session_id():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=51)
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            answers = {prior.fact_ids[0]: True}
            with faults.injected(
                FaultPlan(drop_connection_after_responses=1, drop_limit=1)
            ):
                with pytest.raises(TransportError) as excinfo:
                    await client.post_answers(created.session_id, answers)
            assert excinfo.value.session_id == created.session_id
            assert not excinfo.value.retry_safe
            assert client.retries == 0

            # The lost response covered a merge that DID apply — exactly why
            # the client must not blind-resend state-changing requests.
            view = await client.get_posterior(created.session_id)
            assert view.rounds_merged == 1
            assert client.reconnects == 1

    run(_with_server(scenario))


def test_no_retry_policy_disables_transparent_reconnect_retries():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=52)
        client = await ServiceClient.connect("127.0.0.1", port, retry=NO_RETRY)
        async with client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            with faults.injected(
                FaultPlan(drop_connection_after_responses=1, drop_limit=1)
            ):
                with pytest.raises(TransportError):
                    await client.select_next(created.session_id)
            assert client.retries == 0

    run(_with_server(scenario))


def test_retry_safe_errors_are_retried_with_backoff_until_exhausted():
    async def scenario(service, port):
        prior = dense_distribution(6, 48, seed=53)
        client = await ServiceClient.connect(
            "127.0.0.1",
            port,
            retry=RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.02),
        )
        async with client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            # Every attempt's scan outlives its deadline: the server answers
            # each with retry-safe deadline_exceeded, the client backs off and
            # resends until its budget runs out, then surfaces the error.
            with faults.injected(FaultPlan(delay_select_seconds=0.5)):
                with pytest.raises(DeadlineExceededError):
                    await client.select_next(created.session_id, deadline_ms=50)
            assert client.retries == 2
            assert client.reconnects == 0
            assert service.metrics()["recovery"]["client_retries"] == 2

    run(_with_server(scenario))


def test_wrapped_stream_clients_cannot_reconnect():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=54)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        # Built from a caller-supplied stream pair: no address to dial again.
        async with ServiceClient(reader, writer) as client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            with faults.injected(
                FaultPlan(drop_connection_after_responses=1, drop_limit=1)
            ):
                with pytest.raises(TransportError):
                    await client.select_next(created.session_id)
            # Still no address after the drop: the next call fails fast
            # instead of hanging on a dead stream.
            with pytest.raises(TransportError, match="no address"):
                await client.ping()

    run(_with_server(scenario))


def test_a_deeply_nested_response_is_a_transport_error():
    async def reply_deep(reader, writer):
        await reader.readline()
        writer.write(b"[" * 100_000 + b"\n")
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(reply_deep, "127.0.0.1", 0)
        try:
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port, retry=NO_RETRY)
            async with client:
                with pytest.raises(TransportError, match="recursion limit"):
                    await client.ping()
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())
