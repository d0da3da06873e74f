"""Wire-level suite: the JSON-lines transport and the typed client.

Boots a real loopback server per scenario and checks that the full
round-trip, typed error re-raising (wire code → same exception class on the
client side), and the transport's handling of garbage input all behave.
"""

import asyncio
import json

import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.service import RefinementService, ServiceClient, serve
from repro.service.api import (
    BudgetExhaustedError,
    UnknownSessionError,
    ValidationFailedError,
    decode_channel,
    encode_channel,
    encode_distribution,
)
from repro.service.transport import bound_port

from tests.core.selection.test_persistent_pool import dense_distribution


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(scenario):
    """Boot service + listener, run ``scenario(service, port)``, tear down."""
    service = RefinementService()
    server = await serve(service, port=0)
    try:
        return await scenario(service, bound_port(server))
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()


async def _raw_request(port, payload: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write((payload + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


def test_client_round_trip_over_tcp():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=30)
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            pong = await client.ping()
            assert pong["pong"] and pong["sessions_live"] == 0

            created = await client.create_session(prior, CrowdModel(0.8), budget=6)
            reply = await client.select_next(created.session_id, batch=2)
            report = await client.post_answers(
                created.session_id, {t: True for t in reply.task_ids}
            )
            assert report.rounds_merged == 1

            view = await client.get_posterior(created.session_id)
            assert view.fact_ids == prior.fact_ids
            restored = view.distribution()
            assert abs(sum(p for _, p in restored.items()) - 1.0) < 1e-9

            metrics = await client.metrics()
            assert metrics["sessions"]["live"] == 1

            closed = await client.close_session(created.session_id)
            assert closed.budget_spent == 2

    run(_with_server(scenario))


def test_sessions_survive_reconnection():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=31)
        async with await ServiceClient.connect("127.0.0.1", port) as first:
            created = await first.create_session(prior, CrowdModel(0.8), budget=6)
        # A brand-new connection can keep driving the same session.
        async with await ServiceClient.connect("127.0.0.1", port) as second:
            reply = await second.select_next(created.session_id, batch=1)
            assert reply.task_ids

    run(_with_server(scenario))


def test_typed_errors_cross_the_wire():
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=32)
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            with pytest.raises(UnknownSessionError):
                await client.select_next("s-424242")

            created = await client.create_session(prior, CrowdModel(0.8), budget=1)
            with pytest.raises(BudgetExhaustedError):
                await client.post_answers(
                    created.session_id, {f: True for f in prior.fact_ids[:3]}
                )
            with pytest.raises(ValidationFailedError):
                await client.post_answers(created.session_id, {"ghost": True})

    run(_with_server(scenario))


def test_malformed_requests_get_validation_errors_not_disconnects():
    async def scenario(service, port):
        assert (await _raw_request(port, "this is not json"))["error"][
            "code"
        ] == "validation_failed"
        assert (await _raw_request(port, '["a", "list"]'))["error"][
            "code"
        ] == "validation_failed"
        assert (await _raw_request(port, '{"op": "transmogrify"}'))["error"][
            "code"
        ] == "validation_failed"
        # The connection stays usable after an error on the same socket.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(b"garbage\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            second = json.loads(await reader.readline())
            assert not first["ok"] and second["ok"]
        finally:
            writer.close()
            await writer.wait_closed()

    run(_with_server(scenario))


def test_non_object_channel_or_answers_get_400_on_a_live_connection():
    # Every bad request travels on one connection: a handler that died on a
    # non-object operand would leave the next readline at EOF.
    async def scenario(service, port):
        prior = dense_distribution(5, 24, seed=34)
        created = await service.create_session(prior, CrowdModel(0.8), budget=6)
        create = {
            "op": "create_session",
            "distribution": encode_distribution(prior),
            "budget": 4,
        }
        bad_requests = [
            {**create, "channel": channel}
            for channel in (None, "uniform", 0.8, 3, True, False, [], [0.8], "")
        ]
        bad_requests.append(
            {
                **create,
                "channel": {
                    "kind": "per_fact",
                    "default_accuracy": 0.8,
                    "fact_accuracies": [0.9],
                },
            }
        )
        bad_requests += [
            {"op": "post_answers", "session_id": created.session_id, "answers": answers}
            for answers in ("f0", 1, 0.5, True, ["f0"], [True])
        ]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for request in bad_requests:
                writer.write((json.dumps(request) + "\n").encode("utf-8"))
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                response = json.loads(await reader.readline() or b"null")
                operand = request.get("channel", request.get("answers"))
                assert response is not None, f"connection dropped on {operand!r}"
                assert response["error"]["code"] == "validation_failed"
                assert response["error"]["status"] == 400
                assert json.loads(await reader.readline())["result"]["pong"]
        finally:
            writer.close()
            await writer.wait_closed()

    run(_with_server(scenario))


def test_large_posterior_crosses_the_wire():
    # A realistic posterior (12 facts, 4096 support rows) serialises well
    # past asyncio's default 64 KiB readline limit in both directions: the
    # client ships it in create_session and reads it back in get_posterior,
    # so both endpoints must size their stream buffers from MAX_LINE_BYTES.
    async def scenario(service, port):
        prior = dense_distribution(12, 4096, seed=33)
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            created = await client.create_session(prior, CrowdModel(0.8), budget=4)
            view = await client.get_posterior(created.session_id)
            assert len(view.support) == 4096
            assert len(json.dumps(view.to_payload())) > 64 * 1024
            assert abs(sum(p for _, p in view.support) - 1.0) < 1e-9

    run(_with_server(scenario))


def test_channel_codec_round_trips_heterogeneous_models():
    uniform = CrowdModel(0.85)
    per_fact = PerFactChannelModel(0.8, {"f1": 0.7, "f2": 0.9})
    for channel in (uniform, per_fact):
        restored = decode_channel(encode_channel(channel))
        assert type(restored) is type(channel)
        for fact_id in ("f1", "f2", "f9"):
            assert abs(
                restored.accuracy_for(fact_id) - channel.accuracy_for(fact_id)
            ) < 1e-12
