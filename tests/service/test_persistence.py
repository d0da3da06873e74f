"""Durable service sessions: snapshot/restore, LRU cap and TTL eviction.

Runs :class:`RefinementService` in-process with a ``state_dir`` and pins the
durability contract: a restarted service serves ``get_posterior`` within
1e-12 of the pre-restart posterior (restored sessions keep their budget
ledger, selector and merge count), the ``max_sessions`` LRU cap and the
``idle_ttl_s`` sweeper evict idle sessions *to disk* — their next request
revives them transparently — and a deliberate close deletes the snapshot so
nothing resurrects.
"""

import asyncio
import os
import threading

import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.selection import RefinementSession
from repro.service import RefinementService, persistence
from repro.service.api import (
    ServiceError,
    SessionOverloadedError,
    UnknownSessionError,
    ValidationFailedError,
)
from repro.service.persistence import SessionSnapshotStore
from repro.service.registry import SessionRegistry

from tests.core.selection.test_persistent_pool import dense_distribution


def run(coroutine):
    return asyncio.run(coroutine)


def make_prior(seed=0):
    return dense_distribution(5, 24, seed=seed)


class TestRestartRestore:
    def test_posterior_survives_a_restart_within_1e12(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(
                state_dir=state_dir, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), PerFactChannelModel(0.8, {"f1": 0.9}), budget=10
                )
                await service.post_answers(created.session_id, {"f1": True})
                await service.post_answers(
                    created.session_id, {"f2": False, "f3": True}
                )
                view = await service.get_posterior(created.session_id)
                return created.session_id, view

        session_id, view = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                restored = await service.get_posterior(session_id)
                select = await service.select_next(session_id, batch=2)
                return restored, select

        restored, select = run(after())
        assert restored.rounds_merged == view.rounds_merged == 2
        assert set(restored.marginals) == set(view.marginals)
        for fact_id, marginal in view.marginals.items():
            assert abs(restored.marginals[fact_id] - marginal) < 1e-12
        assert abs(restored.utility - view.utility) < 1e-12
        # The restored session keeps working: budget carried over (3 of 10
        # spent on the two merges), selection runs on the revived engine.
        assert select.budget_remaining == 7
        assert select.task_ids

    def test_budget_ledger_and_selector_survive(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(
                state_dir=state_dir, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=4, selector="greedy"
                )
                await service.post_answers(created.session_id, {"f1": True})
                return created.session_id

        session_id = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                closed = await service.close_session(session_id)
                return closed

        closed = run(after())
        assert closed.rounds_merged == 1
        assert closed.budget_spent == 1

    def test_closed_sessions_do_not_resurrect(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(state_dir=state_dir) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=5
                )
                await service.close_session(created.session_id)
                session_id = created.session_id
            async with RefinementService(state_dir=state_dir) as service:
                with pytest.raises(UnknownSessionError):
                    await service.get_posterior(session_id)

        run(scenario())

    def test_fresh_ids_never_collide_with_stored_sessions(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(state_dir=state_dir) as service:
                a = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                b = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                return {a.session_id, b.session_id}

        old_ids = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                c = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                return c.session_id

        assert run(after()) not in old_ids


class TestEviction:
    def test_lru_cap_evicts_to_disk_and_revives(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(
                state_dir=state_dir, max_sessions=2, snapshot_debounce_s=0.0
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.post_answers(first.session_id, {"f1": True})
                view = await service.get_posterior(first.session_id)
                second = await service.create_session(
                    make_prior(1), CrowdModel(0.8), budget=6
                )
                # ``first`` is the LRU victim of the third create.
                await service.get_posterior(second.session_id)
                third = await service.create_session(
                    make_prior(2), CrowdModel(0.8), budget=6
                )
                assert service.sessions_live == 2
                durability = service.metrics()["durability"]
                assert durability["evictions"] == 1
                # The evicted session revives from disk on its next request,
                # and makes room for itself under the cap as a create does.
                revived = await service.get_posterior(first.session_id)
                assert revived.rounds_merged == 1
                for fact_id, marginal in view.marginals.items():
                    assert abs(revived.marginals[fact_id] - marginal) < 1e-12
                durability = service.metrics()["durability"]
                assert durability["revivals"] == 1
                assert service.sessions_live == 2
                assert durability["evictions"] == 2

        run(scenario())

    def test_an_unknown_id_at_the_cap_evicts_nobody(self, tmp_path):
        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                for unknown in ("s-999999", "../s-000001"):
                    with pytest.raises(UnknownSessionError):
                        await service.get_posterior(unknown)
                assert service.session_ids() == (created.session_id,)
                assert service.metrics()["durability"]["evictions"] == 0

        run(scenario())

    def test_idle_ttl_sweeper_evicts_and_revival_works(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(
                state_dir=state_dir, idle_ttl_s=0.1, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                await service.post_answers(created.session_id, {"f1": True})
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if service.sessions_live == 0:
                        break
                assert service.sessions_live == 0, "idle session was not evicted"
                assert service.metrics()["durability"]["evictions"] == 1
                view = await service.get_posterior(created.session_id)
                assert view.rounds_merged == 1
                assert service.sessions_live == 1

        run(scenario())

    def test_a_request_during_an_eviction_flush_is_answered_normally(
        self, tmp_path, monkeypatch
    ):
        # The session's drainer writes the eviction snapshot with the queue
        # still open: a request that lands meanwhile is served as usual, and
        # the session stays resident instead of leaving under it.
        write = persistence.atomic_write_json
        writing, release = threading.Event(), threading.Event()

        def gated(path, payload):
            writing.set()
            release.wait(5.0)
            write(path, payload)

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                monkeypatch.setattr(persistence, "atomic_write_json", gated)
                # The cap evicts ``first`` to make room; its flush blocks.
                second = asyncio.ensure_future(
                    service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                )
                while not writing.is_set():
                    await asyncio.sleep(0.001)
                select = asyncio.ensure_future(service.select_next(first.session_id))
                await asyncio.sleep(0)  # the select queues behind the flush
                release.set()
                reply = await select
                assert reply.task_ids and not reply.cached
                with pytest.raises(SessionOverloadedError):
                    await second
                assert service.session_ids() == (first.session_id,)
                assert service.metrics()["durability"]["evictions"] == 0

        run(scenario())

    @pytest.mark.parametrize("requests", [2, 6])
    def test_concurrent_requests_for_an_evicted_session_revive_it_once(
        self, tmp_path, requests
    ):
        # Later requests wait for the first one's revive instead of picking
        # the same LRU victim, whose eviction is still queued.
        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                views = await asyncio.gather(
                    *(service.get_posterior(first.session_id) for _ in range(requests))
                )
                assert all(view == views[0] for view in views)
                durability = service.metrics()["durability"]
                assert durability["revivals"] == 1
                assert durability["evictions"] == 2
                assert service.sessions_live == 1
                assert service.session_ids() == (first.session_id,)

        run(scenario())

    def test_closing_an_evicted_session_at_the_cap_evicts_nobody(self, tmp_path):
        state_dir = tmp_path / "state"

        async def scenario():
            async with RefinementService(
                state_dir=str(state_dir), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.post_answers(first.session_id, {"f1": True})
                second = await service.create_session(
                    make_prior(1), CrowdModel(0.8), budget=6
                )
                before = dict(service.metrics()["durability"])
                closed = await service.close_session(first.session_id)
                # The ledger comes from the snapshot the eviction wrote.
                assert (closed.rounds_merged, closed.budget_spent) == (1, 1)
                assert service.session_ids() == (second.session_id,)
                after = service.metrics()["durability"]
                assert after["evictions"] == before["evictions"] == 1
                assert after["snapshots_written"] == before["snapshots_written"]
                assert after["revivals"] == 0
                assert not (state_dir / f"{first.session_id}.json").exists()
                with pytest.raises(UnknownSessionError):
                    await service.get_posterior(first.session_id)

        run(scenario())

    def test_a_close_during_a_revive_closes_the_revived_session(self, tmp_path):
        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.post_answers(first.session_id, {"f1": True})
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                view, closed = await asyncio.gather(
                    service.get_posterior(first.session_id),
                    service.close_session(first.session_id),
                )
                assert view.rounds_merged == closed.rounds_merged == 1
                assert service.session_ids() == ()
                durability = service.metrics()["durability"]
                assert durability["revivals"] == 1
                assert durability["stored_sessions"] == 1  # the other session
                with pytest.raises(UnknownSessionError):
                    await service.get_posterior(first.session_id)

        run(scenario())

    def test_eviction_requires_state_dir(self):
        with pytest.raises(ValidationFailedError, match="snapshot_dir"):
            SessionRegistry(max_sessions=4)
        with pytest.raises(ValidationFailedError, match="snapshot_dir"):
            SessionRegistry(idle_ttl_s=5.0)


class TestOffLoopRevive:
    """A revive reads and decodes its snapshot on the executor."""

    def test_the_decode_runs_off_the_loop_thread(self, tmp_path, monkeypatch):
        decoders = []
        decode = persistence.decode_snapshot

        def spy(payload):
            decoders.append(threading.get_ident())
            return decode(payload)

        monkeypatch.setattr(persistence, "decode_snapshot", spy)

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                view = await service.get_posterior(first.session_id)
                assert view.rounds_merged == 0
                assert service.metrics()["durability"]["revivals"] == 1
                return threading.get_ident()

        loop_thread = run(scenario())
        assert len(decoders) == 1
        assert loop_thread not in decoders

    def test_another_tenant_selects_while_a_revive_decodes(self, tmp_path, monkeypatch):
        decoding = threading.Event()
        release = threading.Event()
        decode = persistence.decode_snapshot

        def held(payload):
            decoding.set()
            # Bounded, so a decode on the loop thread fails the test instead
            # of hanging it.
            release.wait(timeout=5.0)
            return decode(payload)

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=2
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                # The cap evicts ``first``, the least recently used.
                other = await service.create_session(
                    make_prior(2), CrowdModel(0.8), budget=6
                )
                monkeypatch.setattr(persistence, "decode_snapshot", held)
                revive = asyncio.ensure_future(service.get_posterior(first.session_id))
                while not decoding.is_set():
                    await asyncio.sleep(0.001)
                # An inline select of another tenant, while the decode is held.
                reply = await service.select_next(other.session_id)
                assert reply.task_ids
                assert not revive.done()
                release.set()
                view = await revive
                assert view.rounds_merged == 0
                assert service.metrics()["durability"]["revivals"] == 1

        run(scenario())

    def test_a_snapshot_that_vanished_mid_revive_is_unknown(self, tmp_path, monkeypatch):
        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                store = service._registry._store
                load = store.load

                def vanished(session_id):
                    # The file goes between the existence check and the read.
                    store.delete(session_id)
                    return load(session_id)

                monkeypatch.setattr(store, "load", vanished)
                with pytest.raises(UnknownSessionError):
                    await service.get_posterior(first.session_id)
                assert service.metrics()["durability"]["revivals"] == 0

        run(scenario())


class TestSnapshotWrites:
    def test_no_snapshot_write_runs_on_the_event_loop(self, tmp_path, monkeypatch):
        # Each write fsyncs, and a write on the loop thread stalls every
        # tenant for that long: creates, due post-merge snapshots and
        # evictions all write on the executor.
        writers = []
        write = persistence.atomic_write_json

        def spy(path, payload):
            writers.append(threading.get_ident())
            write(path, payload)

        monkeypatch.setattr(persistence, "atomic_write_json", spy)

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"),
                max_sessions=1,
                snapshot_debounce_s=0.0,
            ) as service:
                loop_thread = threading.get_ident()
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.post_answers(first.session_id, {"f1": True})
                await service.post_answers(first.session_id, {"f2": False})
                # The cap evicts ``first`` to disk to make room.
                await service.create_session(make_prior(1), CrowdModel(0.8), budget=6)
                durability = service.metrics()["durability"]
                return loop_thread, list(writers), durability

        loop_thread, seen, durability = run(scenario())
        # Create, two merges, the eviction's flush, the second create.
        assert len(seen) == durability["snapshots_written"] == 5
        assert durability["evictions"] == 1
        assert loop_thread not in seen

    def test_a_failed_snapshot_after_a_merge_keeps_the_session_serving(
        self, tmp_path, monkeypatch
    ):
        write = persistence.atomic_write_json

        def full_disk(path, payload):
            raise OSError("no space left on device")

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                monkeypatch.setattr(persistence, "atomic_write_json", full_disk)
                # The merge applied, so its reply stands; the failed write
                # is counted and the session stays dirty.
                first = await service.post_answers(created.session_id, {"f1": True})
                assert first.rounds_merged == 1
                assert service.metrics()["errors"] == 1
                monkeypatch.setattr(persistence, "atomic_write_json", write)
                second = await service.post_answers(created.session_id, {"f2": False})
                assert second.rounds_merged == 2
                return created.session_id

        session_id = run(scenario())

        async def after():
            async with RefinementService(state_dir=str(tmp_path / "state")) as service:
                return await service.get_posterior(session_id)

        assert run(after()).rounds_merged == 2

    def test_a_failed_birth_snapshot_leaves_no_session(self, tmp_path, monkeypatch):
        write = persistence.atomic_write_json

        def full_disk(path, payload):
            raise OSError("no space left on device")

        async def scenario():
            async with RefinementService(
                state_dir=str(tmp_path / "state"), max_sessions=1
            ) as service:
                monkeypatch.setattr(persistence, "atomic_write_json", full_disk)
                with pytest.raises(ServiceError, match="no space left"):
                    await service.create_session(
                        make_prior(0), CrowdModel(0.8), budget=6
                    )
                assert service.sessions_live == 0
                assert service.session_ids() == ()
                # The failed session holds no slot: the next create fits
                # under the cap without evicting anyone.
                monkeypatch.setattr(persistence, "atomic_write_json", write)
                created = await service.create_session(
                    make_prior(1), CrowdModel(0.8), budget=6
                )
                assert service.session_ids() == (created.session_id,)
                assert service.metrics()["durability"]["evictions"] == 0

        run(scenario())


class TestSessionIds:
    """A client's session id never reaches a path outside ``state_dir``."""

    def test_an_id_that_climbs_out_of_state_dir_is_unknown(self, tmp_path):
        outside = tmp_path / "outside"

        async def plant():
            # A real snapshot, moved out of the state directory.
            async with RefinementService(state_dir=str(outside)) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
            os.rename(
                outside / f"{created.session_id}.json", outside / "victim.json"
            )
            (outside / "plain.json").write_text('{"not": "a snapshot"}')

        run(plant())
        victim = (outside / "victim.json").read_bytes()

        async def attack():
            async with RefinementService(state_dir=str(tmp_path / "state")) as service:
                for name in ("victim", "plain", "missing"):
                    with pytest.raises(UnknownSessionError):
                        await service.get_posterior(f"../outside/{name}")
                    with pytest.raises(UnknownSessionError):
                        await service.close_session(f"../outside/{name}")
                assert service.sessions_live == 0

        run(attack())
        assert (outside / "victim.json").read_bytes() == victim
        assert (outside / "plain.json").exists()


class TestSnapshotStore:
    def test_version_gate(self, tmp_path):
        store = SessionSnapshotStore(str(tmp_path))
        from repro.orchestration.journal import atomic_write_json

        atomic_write_json(
            str(tmp_path / "s-000001.json"), {"version": 999, "session_id": "s-000001"}
        )
        with pytest.raises(ValidationFailedError, match="version"):
            store.load("s-000001")

    def test_stored_ids_and_delete(self, tmp_path):
        store = SessionSnapshotStore(str(tmp_path))
        from repro.orchestration.journal import atomic_write_json

        for name in ("s-000002", "s-000001"):
            atomic_write_json(
                str(tmp_path / f"{name}.json"), {"version": 1, "session_id": name}
            )
        assert store.stored_ids() == ["s-000001", "s-000002"]
        store.delete("s-000001")
        store.delete("s-000001")  # idempotent
        assert store.stored_ids() == ["s-000002"]

    @pytest.mark.parametrize(
        "session_id",
        ["../x", "s-1/../s-2", "", "s-1\x00"],
        ids=["parent", "embedded-parent", "empty", "nul"],
    )
    def test_a_malformed_id_is_refused_before_any_file_access(
        self, tmp_path, monkeypatch, session_id
    ):
        store = SessionSnapshotStore(str(tmp_path))
        session = RefinementSession(make_prior(), CrowdModel(0.8))

        def no_file_access(*args, **kwargs):
            raise AssertionError("the store touched the file system")

        monkeypatch.setattr(persistence, "atomic_write_json", no_file_access)
        monkeypatch.setattr(persistence, "read_json", no_file_access)
        monkeypatch.setattr(os, "unlink", no_file_access)
        monkeypatch.setattr(os.path, "exists", no_file_access)
        with pytest.raises(UnknownSessionError):
            store.load(session_id)
        with pytest.raises(UnknownSessionError):
            store.save(session_id, session, "greedy", 6, 0)
        with pytest.raises(UnknownSessionError):
            store.delete(session_id)
        with pytest.raises(UnknownSessionError):
            store.exists(session_id)
