"""Session bookkeeping: addressable ids, budgets and per-tenant runtime state.

The registry is the service's source of truth for "which sessions exist".
Sessions live in a :class:`~repro.core.selection.session.SessionPool`, and
every session carries a :class:`SessionRecord` with the service-level state
the core runtime doesn't know about: the remaining task budget, the
per-tenant selector instance, and the generation-keyed response caches.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.selection import available_selectors, get_selector
from repro.core.selection.base import TaskSelector
from repro.core.selection.session import RefinementSession, SessionPool
from repro.exceptions import BudgetError, CrowdFusionError, SelectionError
from repro.service.api import (
    BudgetExhaustedError,
    UnknownSessionError,
    ValidationFailedError,
)

#: Generation key of a cached response: ``(reweights, channel_swaps)`` of the
#: session's engine.  Both counters only ever grow, and between them they
#: cover every event that changes selection scores — a Bayesian merge bumps
#: ``reweights``, a re-calibration channel swap bumps ``channel_swaps`` — so
#: a cache entry is valid iff its key matches the engine's current pair.
Generation = Tuple[int, int]


@dataclass
class SessionRecord:
    """One tenant's session plus the service-level state around it."""

    session_id: str
    session: RefinementSession
    selector: TaskSelector
    selector_name: str
    budget: int
    spent: int = 0
    #: ``(generation, batch) → SelectionReply`` — selection is deterministic
    #: given the posterior and channel, so replies are reusable until either
    #: changes.
    selection_cache: Dict[Tuple[Generation, int], Any] = field(default_factory=dict)
    #: ``generation → PosteriorView``.
    posterior_cache: Dict[Generation, Any] = field(default_factory=dict)
    #: ``time.monotonic()`` of the last request that touched this session —
    #: the LRU/TTL eviction clock.
    last_used: float = field(default_factory=time.monotonic)
    #: Whether state changed since the last snapshot was written.
    dirty: bool = False
    #: ``time.monotonic()`` of the last snapshot write (debounce anchor).
    last_snapshot_at: float = 0.0
    #: Executor futures of selects and posterior builds abandoned at their
    #: deadline and still running: a merge writes the posterior in place, so
    #: it waits for them first.
    abandoned_reads: "Set[Any]" = field(default_factory=set)

    @property
    def remaining(self) -> int:
        return self.budget - self.spent

    def generation(self) -> Generation:
        """The engine's current ``(reweights, channel_swaps)`` pair."""
        engine = self.session.engine
        return (engine.reweights, engine.channel_swaps)

    def invalidate_caches(self) -> None:
        """Drop every cached reply (called after merges and channel swaps).

        Strictly, stale generations could never be served again — the key
        pair only grows — but dropping them keeps the per-session cache at
        one generation's worth of entries instead of the whole history.
        """
        self.selection_cache.clear()
        self.posterior_cache.clear()

    def charge(self, tasks: int) -> None:
        """Debit ``tasks`` from the budget, or refuse the whole batch."""
        if tasks > self.remaining:
            raise BudgetExhaustedError(
                f"session {self.session_id} has {self.remaining} of "
                f"{self.budget} budget left; cannot accept {tasks} answers"
            )
        self.spent += tasks


@dataclass(frozen=True)
class StoredSession:
    """A session snapshot read and decoded from disk, ready to install.

    :meth:`SessionRegistry.load_stored` builds it without touching any
    registry state, so the service runs that step off its event loop;
    :meth:`SessionRegistry.install` then makes it resident.
    """

    distribution: JointDistribution
    channel: ChannelModel
    selector: TaskSelector
    selector_name: str
    budget: int
    spent: int
    rounds_merged: int


class SessionRegistry:
    """Creates, resolves, snapshots, restores and evicts the service's sessions.

    With ``snapshot_dir`` set, the registry is durable: every session's
    posterior, channel state and budget ledger are snapshotted to disk
    (after merges, debounced by ``snapshot_debounce_s``; always on eviction
    and shutdown), a restarted registry picks the snapshots back up lazily on
    first access, and the eviction policy (``max_sessions`` LRU cap,
    ``idle_ttl_s`` idle timeout) moves sessions *to disk* instead of dropping
    them — an evicted tenant's next request revives the session
    transparently.  Both eviction knobs require ``snapshot_dir``; evicting
    without somewhere durable to put the session would silently destroy
    tenant state.
    """

    def __init__(
        self,
        snapshot_dir: Optional[str] = None,
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        snapshot_debounce_s: float = 1.0,
    ):
        if max_sessions is not None and max_sessions < 1:
            raise ValidationFailedError(
                f"max_sessions must be at least 1, got {max_sessions}"
            )
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValidationFailedError(
                f"idle_ttl_s must be positive, got {idle_ttl_s}"
            )
        if (max_sessions is not None or idle_ttl_s is not None) and snapshot_dir is None:
            raise ValidationFailedError(
                "max_sessions / idle_ttl_s eviction requires snapshot_dir: "
                "evicting sessions without durable snapshots would drop "
                "tenant state"
            )
        self._pool = SessionPool()
        self._records: Dict[str, SessionRecord] = {}
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self._snapshot_debounce_s = snapshot_debounce_s
        #: Durability counters spliced into the service metrics payload.
        self.counters: Dict[str, int] = {
            "snapshots_written": 0,
            "evictions": 0,
            "revivals": 0,
            "restored_available": 0,
        }
        #: Snapshots of different sessions run on different executor threads.
        self._snapshot_count_lock = threading.Lock()
        self._store = None
        start_id = 1
        if snapshot_dir is not None:
            # Imported lazily so registries without durability never touch
            # the orchestration substrate.
            from repro.service.persistence import SessionSnapshotStore

            self._store = SessionSnapshotStore(snapshot_dir)
            stored = self._store.stored_ids()
            self.counters["restored_available"] = len(stored)
            # Resume the id counter past every stored session so revived and
            # fresh sessions can never collide.
            start_id += max((int(session_id[2:]) for session_id in stored), default=0)
        self._ids = itertools.count(start_id)

    def __len__(self) -> int:
        return len(self._records)

    def create(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        budget: int,
        selector: str = "greedy_prune_pre",
    ) -> SessionRecord:
        """Register a new session under a fresh id."""
        if budget <= 0:
            raise ValidationFailedError(f"budget must be positive, got {budget}")
        if selector not in available_selectors():
            raise ValidationFailedError(
                f"unknown selector {selector!r}; expected one of "
                f"{available_selectors()}"
            )
        session_id = f"s-{next(self._ids):06d}"
        try:
            session = self._pool.add(session_id, distribution, channel)
        except (BudgetError, SelectionError, CrowdFusionError) as error:
            raise ValidationFailedError(f"cannot create session: {error}") from None
        record = SessionRecord(
            session_id=session_id,
            session=session,
            selector=get_selector(selector),
            selector_name=selector,
            budget=budget,
            dirty=self._store is not None,
        )
        # With a store the record starts dirty: the caller writes its first
        # snapshot (the service does so before it replies, off the loop).
        self._records[session_id] = record
        return record

    def get(self, session_id: str) -> SessionRecord:
        """The resident record of ``session_id``, touching its LRU clock.

        A stored session is not revived here: revive it with
        :meth:`load_stored` and :meth:`install` first.
        """
        record = self._records.get(session_id)
        if record is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        record.last_used = time.monotonic()
        return record

    def peek(self, session_id: str) -> Optional[SessionRecord]:
        """The live record, without touching the LRU clock or reviving."""
        return self._records.get(session_id)

    def remove(self, session_id: str) -> SessionRecord:
        """Close one session for good."""
        record = self.get(session_id)
        del self._records[session_id]
        self._pool.remove(session_id)
        if self._store is not None:
            # A deliberate close is the end of the session's life: its
            # snapshot must not resurrect it after a restart.
            self._store.delete(session_id)
        return record

    def remove_stored(self, session_id: str) -> Tuple[int, int]:
        """Close a stored, non-resident session for good, without reviving it.

        Deletes its snapshot and returns the ``(rounds_merged, spent)`` ledger
        the snapshot recorded.
        """
        payload = self._store.load(session_id) if self._store is not None else None
        if payload is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        self._store.delete(session_id)
        return int(payload["rounds_merged"]), int(payload["spent"])

    def session_ids(self) -> Tuple[str, ...]:
        return tuple(self._records)

    # -- durability --------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self._store is not None

    def has_snapshot(self, session_id: str) -> bool:
        """Whether ``session_id`` is stored on disk, without reading it.

        With a store, an id not of the form the registry hands out raises
        :class:`~repro.service.api.UnknownSessionError`.
        """
        return self._store is not None and self._store.exists(session_id)

    def stored_ids(self) -> Tuple[str, ...]:
        """Ids restorable from disk (evicted or from a previous process)."""
        if self._store is None:
            return ()
        return tuple(self._store.stored_ids())

    def load_stored(self, session_id: str) -> StoredSession:
        """Read and decode an evicted/restarted session's disk snapshot.

        The first half of a revive, and the slow one (a snapshot holds a
        whole posterior): it reads no registry state beyond the store and
        changes none, so it may run on any thread.  Raises
        :class:`~repro.service.api.UnknownSessionError` when the snapshot
        is gone.
        """
        payload = self._store.load(session_id) if self._store is not None else None
        if payload is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        from repro.service.persistence import decode_snapshot

        distribution, channel = decode_snapshot(payload)
        return StoredSession(
            distribution=distribution,
            channel=channel,
            selector=get_selector(payload["selector"]),
            selector_name=payload["selector"],
            budget=int(payload["budget"]),
            spent=int(payload["spent"]),
            rounds_merged=int(payload["rounds_merged"]),
        )

    def install(self, session_id: str, stored: StoredSession) -> SessionRecord:
        """Make a loaded snapshot the resident session ``session_id``.

        The second half of a revive; the caller checks capacity first.
        """
        try:
            session = self._pool.add(session_id, stored.distribution, stored.channel)
        except (BudgetError, SelectionError, CrowdFusionError) as error:
            raise ValidationFailedError(
                f"cannot revive session {session_id}: {error}"
            ) from None
        # The snapshot stored the *posterior*; it is the revived session's
        # prior, so only the merge counter needs restoring.
        session.restore_rounds_merged(stored.rounds_merged)
        record = SessionRecord(
            session_id=session_id,
            session=session,
            selector=stored.selector,
            selector_name=stored.selector_name,
            budget=stored.budget,
            spent=stored.spent,
            last_snapshot_at=time.monotonic(),
        )
        self._records[session_id] = record
        self.counters["revivals"] += 1
        return record

    def note_merged(self, record: SessionRecord) -> bool:
        """Mark post-merge state dirty; whether a debounced snapshot is due.

        The caller writes a due snapshot with :meth:`snapshot` (the service
        does so on its executor, from the session's drainer, so the record is
        not concurrently mutated).  The debounce window bounds snapshot I/O
        for chatty tenants; eviction and shutdown flush unconditionally, so
        debouncing only ever delays — never loses — a snapshot while the
        process is alive.
        """
        record.dirty = True
        if self._store is None:
            return False
        return time.monotonic() - record.last_snapshot_at >= self._snapshot_debounce_s

    def snapshot(self, record: SessionRecord) -> None:
        """Write one session's snapshot now (no-op without a store).

        Thread-safe across sessions; one session's snapshots must not
        overlap its own merges.
        """
        if self._store is None:
            return
        self._store.save(
            record.session_id,
            record.session,
            record.selector_name,
            record.budget,
            record.spent,
        )
        record.dirty = False
        record.last_snapshot_at = time.monotonic()
        with self._snapshot_count_lock:
            self.counters["snapshots_written"] += 1

    def evict(self, session_id: str) -> None:
        """Move one session to disk: flush a dirty snapshot, then close it.

        The service writes the snapshot on its executor just before, so the
        record arrives clean and nothing is written here.
        """
        record = self._records.get(session_id)
        if record is None:
            return
        if self._store is None:
            raise ValidationFailedError(
                "cannot evict sessions without a snapshot_dir"
            )
        if record.dirty:
            self.snapshot(record)
        del self._records[session_id]
        self._pool.remove(session_id)
        self.counters["evictions"] += 1

    def lru_candidate(self, exclude: Tuple[str, ...] = ()) -> Optional[str]:
        """The least-recently-used live session id (eviction victim)."""
        candidates = [
            record
            for session_id, record in self._records.items()
            if session_id not in exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda record: record.last_used).session_id

    def at_capacity(self) -> bool:
        return self.max_sessions is not None and len(self._records) >= self.max_sessions

    def idle_candidates(self, now: Optional[float] = None) -> List[str]:
        """Live sessions idle past ``idle_ttl_s`` (oldest first)."""
        if self.idle_ttl_s is None:
            return []
        now = time.monotonic() if now is None else now
        idle = [
            record
            for record in self._records.values()
            if now - record.last_used >= self.idle_ttl_s
        ]
        idle.sort(key=lambda record: record.last_used)
        return [record.session_id for record in idle]

    def close(self) -> None:
        """Flush snapshots and close every session."""
        if self._store is not None:
            for record in self._records.values():
                if record.dirty:
                    self.snapshot(record)
        self._records.clear()
        self._pool.close()
