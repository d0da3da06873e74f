"""Parallel shared-memory candidate evaluation for greedy selection.

One greedy iteration of Algorithm 1 scores every remaining candidate against
the same :class:`~repro.core.selection.engine.EntropyEngine` state — a pure
read-only batched array pass (one grouped ``np.bincount`` plus one channel
transform per block of candidates), with no shared mutable state.  That makes
the candidate scan embarrassingly parallel, and on scale corpora (supports
past ``2^20``, hundreds of candidate facts) the scan is the system bottleneck
the paper's Table V measures.

This module shards the scan across one ``multiprocessing`` pool, the
:class:`EvaluatorPool`, which any number of engines share:

* **Fork-inherited shared memory** — the pool is created with the ``fork``
  start method *after* the registry of attached engines has been published
  to a module global, so every worker inherits each engine's read-only state
  (support masks, probability vector, cached per-fact bit columns, interest
  cells) via copy-on-write pages.  Nothing about the support is ever
  pickled; the only data crossing process boundaries are fact-id chunks and
  the parent state's table going out, and the chunks' entropies and answer
  tables coming back.
* **Scores shipped, partition refined** — the incremental
  :class:`~repro.core.selection.engine.SelectionState` grows by one task per
  iteration.  Its support-sized arrays (the ``int32`` partition) never
  travel: each worker keeps its own state per engine, records the bit
  columns of the newly committed tasks, and its scan refines the partition
  from there.  The parent never reads its own states' partitions, so it
  never builds them.  The scores — the ``cells · 2^width`` table, the
  entropies and the per-bit accuracies — travel in the dispatch and are
  adopted verbatim (:meth:`EntropyEngine._refresh_state`), so no worker ever
  re-scores a committed task, and every worker-computed float is exactly
  the one the serial scan produces.
* **Chunked dispatch with an auto-serial policy** — on a support scanned by
  slice histograms the candidates are grouped by 8-bit mask slice and each
  worker gets one chunk of whole slices, so every slice histogram is built
  once per iteration across the pool; other supports are dispatched in
  order-preserving chunks (several per worker, for load balance).  A
  :class:`ParallelPolicy` decides whether parallelism pays at all: below a
  work threshold (candidates × support rows) the caller runs the ordinary
  in-process scan, so small Table-V-sized rounds never pay the fork or IPC
  overhead.  Later scans of a selection only shrink, so a selection whose
  first scan stays under the threshold skips the evaluator altogether.
* **One fork per run, not per round** — the pool survives every
  ``EntropyEngine.reweight``: each engine owns a
  :class:`multiprocessing.shared_memory` snapshot ring
  (:class:`_SnapshotRing`, one slot), the parent writes a reweighted
  (already normalised) posterior into it, and every dispatch carries
  a tiny header ``(engine id, reweights, slot, channel_swaps, channel)``.
  A worker whose inherited engine is behind copies the snapshot byte for
  byte (:meth:`EntropyEngine.load_probabilities` — no renormalisation, so
  all later float operations stay bit-identical to the parent's) and
  replays any ``set_channel`` swap (adaptive re-calibration) from the
  header, then rebuilds its selection state exactly as on first contact.
* **Many engines, one set of workers** — the engine id in the header picks
  one of the fork-inherited engines, so one worker pool serves interleaved
  rounds of any number of refinement sessions (the entities of an
  experiment, the tenants of a service).  Engines attached *after* the fork
  mark the pool stale; the next dispatch re-forks once with the full
  registry.
* **Supervision** — every dispatch watches its workers; a crashed, hung or
  desynchronised worker triggers a re-fork from the engines' *current*
  state, and repeated failures trip a circuit breaker that degrades the
  pool to serial scans instead of erroring.

Selection results are **bit-for-bit identical** to the serial path by
construction: the pool returns a
:class:`~repro.core.selection.engine.CandidateScan` with every candidate's
floats in candidate order (a candidate's floats do not depend on which
others share its chunk), the caller replays the exact serial ranking loop
(same ``TIE_TOLERANCE`` first-index-wins comparison, same pruning bound)
over them, and commits the winner from the tables its worker returned.
"""

from __future__ import annotations

import atexit
import functools
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import warnings
import weakref
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.crowd import ChannelModel
from repro.core.selection.base import SelectionResult
from repro.core.selection.engine import (
    _SLICE_BITS,
    CandidateScan,
    EntropyEngine,
    SelectionState,
)
from repro.exceptions import SelectionError
from repro.testing import faults

_LOGGER = logging.getLogger("repro.selection.parallel")

#: Default auto-serial threshold, in work units of candidates × support rows.
#: One unit is roughly one support-row visit; forking a pool costs on the
#: order of millions of row visits, so below ~2^22 units the serial scan wins
#: (the Table-V hot path — tens of candidates over a few-thousand-row support
#: — sits orders of magnitude under it and never leaves the serial path).
DEFAULT_PARALLEL_THRESHOLD = 1 << 22

#: Chunks dispatched per worker per iteration on the offset-``bincount`` path:
#: more than one for load balance (candidate costs vary with the
#: cached-partition width), few enough that IPC stays negligible.
_CHUNKS_PER_WORKER = 4

#: Slots in each engine's shared-memory snapshot ring.  Dispatch is
#: synchronous (``pool.map`` returns only once every chunk is scored, and a
#: crashed dispatch tears its workers down before the next publish), so no
#: worker can still be reading the slot the parent overwrites: every header
#: names the newest posterior, and one slot holds it.
_SNAPSHOT_SLOTS = 1

#: Published engine registry the pool workers inherit at fork time: workers
#: keep their fork-time copy of every attached engine, keyed by the engine id
#: shipped in each dispatch header.  Set by :meth:`EvaluatorPool._ensure_pool`
#: immediately before the fork and cleared right after: the parent never
#: keeps a module-level reference, the children each keep their copy.
_FORK_ENGINES: Optional[Dict[int, EntropyEngine]] = None

#: Published per-engine snapshot rings, inherited the same way.  The
#: underlying shared-memory mappings are ``MAP_SHARED``, so parent writes
#: after the fork are visible to every worker.
_FORK_RING_MAP: Optional[Dict[int, "_SnapshotRing"]] = None

#: Per-worker selection states, one per engine id (lives only in pool worker
#: processes).
_WORKER_STATES: Dict[int, SelectionState] = {}

#: Serialises every set-globals → fork → clear-globals sequence across *all*
#: :class:`EvaluatorPool` instances.  The per-instance locks are not enough:
#: a multi-pool service dispatches from several executor threads, and two
#: pools forking concurrently would race on the module globals above — pool
#: B overwriting (or clearing) them between pool A publishing its registry
#: and A's fork completing, so A's workers could inherit B's engines under
#: A's per-pool engine ids and silently score another tenant's posterior.
_FORK_PUBLISH_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def fork_available() -> bool:
    """Whether this platform can share engine state via the ``fork`` method.

    Cached: the platform's start methods never change within a process, and
    the pool policy asks before every selection and every pooled scan.
    """
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerSyncError(SelectionError):
    """A pool worker found its fork-inherited state unusable for a dispatch.

    Raised *inside* workers when the fork contract is broken: no inherited
    engine (the worker was respawned by the pool's maintenance thread rather
    than our supervised fork), no snapshot ring, or a generation header that
    advanced the channel generation without shipping the channel model (a
    torn/corrupt header).  The supervisor treats it exactly like a worker
    death — rebuild the pool — because the worker's state cannot be trusted
    to produce serial-identical scores.
    """


class WorkerCrashError(SelectionError):
    """Parent-side verdict that a supervised dispatch cannot complete.

    Covers a worker process found dead mid-dispatch (sentinel exitcode), a
    dispatch exceeding its configured timeout (hung/blackholed worker), and a
    :class:`WorkerSyncError` surfacing through the result queue.  Callers of
    a candidate scan never see it — the pool is rebuilt and the dispatch
    retried, or the circuit breaker degrades the scan to serial.  The
    experiment runner's entity fan-out has no serial fallback and raises it
    to its caller.
    """


# ---------------------------------------------------------------------------------------
# Shared-memory leak guard.
#
# A snapshot ring's /dev/shm segment is normally unlinked by ``close()`` when
# the owning evaluator/pool shuts down.  A parent killed by SIGTERM (container
# stop, supervisor restart) never reaches that path — SIGTERM's default
# disposition skips ``atexit`` entirely — and would orphan one segment per
# live ring until the resource tracker complains at its own exit.  Every ring
# registers itself here at creation; the guard reaps whatever is still alive
# at interpreter exit *and* on SIGTERM (chaining to the previous handler so
# embedding applications keep their own shutdown behaviour).
#
# Both paths are owner-pid-guarded: pool workers fork-inherit the registry
# and the atexit hook — without the pid check a dying worker would unlink the
# parent's *live* segment out from under every other worker.  Fork children
# do not keep the SIGTERM handler, though: right after every fork the child
# gets back the disposition the guard replaced (see
# :func:`_restore_sigterm_in_child`).
# ---------------------------------------------------------------------------------------

_LIVE_RINGS: "weakref.WeakSet[_SnapshotRing]" = weakref.WeakSet()
#: Objects with a ``reap_on_shutdown()`` method that must run alongside the
#: ring reap — the experiment orchestrator registers its shard-process pool
#: here, so a SIGTERM'd orchestrator leaks neither shard workers nor rings.
_LIVE_REAPERS: "weakref.WeakSet" = weakref.WeakSet()
_GUARD_PID: Optional[int] = None
_PREV_SIGTERM = None


def register_shutdown_reaper(reaper) -> None:
    """Run ``reaper.reap_on_shutdown()`` at interpreter exit and on SIGTERM.

    The same owner-pid-guarded lifecycle as the snapshot rings: only the
    registering process ever runs the reap (fork children inherit the
    registry but their pid check makes it a no-op), and the registry holds
    weak references so a reaper that is garbage collected simply drops out.
    Child-process supervisors (the lease coordinator's local worker pool)
    register here so an abnormal parent exit cannot orphan their worker
    processes.
    """
    _ensure_ring_guard()
    _LIVE_REAPERS.add(reaper)


def unregister_shutdown_reaper(reaper) -> None:
    """Remove ``reaper`` from the shutdown registry (idempotent)."""
    _LIVE_REAPERS.discard(reaper)


def _reap_live_rings() -> None:
    """Reap registered child supervisors, then unlink every still-live ring
    owned by this process (idempotent)."""
    if os.getpid() != _GUARD_PID:
        return
    # Child reapers first: a worker process may still hold an inherited ring
    # mapping open, and terminating it before the unlink keeps the segment's
    # refcount honest.
    for reaper in list(_LIVE_REAPERS):
        try:
            reaper.reap_on_shutdown()
        except Exception:  # pragma: no cover - best effort during shutdown
            pass
    for ring in list(_LIVE_RINGS):
        try:
            ring.close()
        except Exception:  # pragma: no cover - best effort during shutdown
            pass


def _sigterm_reap_and_chain(signum, frame):  # pragma: no cover - exercised in subprocess
    _reap_live_rings()
    previous = _PREV_SIGTERM
    if callable(previous):
        previous(signum, frame)
        return
    if previous is signal.SIG_IGN:
        return
    # Default disposition: restore it and re-deliver so the exit status still
    # says "terminated by SIGTERM" to whatever sent the signal.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _restore_sigterm_in_child() -> None:
    """Give a fork child back the SIGTERM disposition the guard replaced.

    In a child the guard's handler could only chain to that disposition
    (its reap is owner-pid-guarded), but as a Python-level handler it can
    lose a SIGTERM: one that lands just before a blocking C call — a pool
    worker about to wait on its task-queue lock — is recorded, never acted
    on, and ``Pool.terminate`` then waits forever for a worker that does not
    exit.  The restored disposition (normally the default) acts in the
    kernel and cannot be lost.
    """
    if signal.getsignal(signal.SIGTERM) is not _sigterm_reap_and_chain:
        return
    previous = _PREV_SIGTERM if _PREV_SIGTERM is not None else signal.SIG_DFL
    try:
        signal.signal(signal.SIGTERM, previous)
    except ValueError:  # pragma: no cover - forked from a non-main thread
        pass


os.register_at_fork(after_in_child=_restore_sigterm_in_child)


def _ensure_ring_guard() -> None:
    """Install the atexit + SIGTERM reaper once per owning process."""
    global _GUARD_PID, _PREV_SIGTERM
    if _GUARD_PID == os.getpid():
        return
    # First ring of this process (or of a fork that inherited a stale guard
    # pid): (re)register for *this* pid.  The atexit hook may end up
    # registered once per forked generation; the pid check makes extras no-ops.
    _GUARD_PID = os.getpid()
    atexit.register(_reap_live_rings)
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm_reap_and_chain)
    except ValueError:  # pragma: no cover - not on the main thread
        previous = None
    if previous is not _sigterm_reap_and_chain:
        # A fork re-installing over our own inherited handler must keep the
        # original chain target, not chain to itself.
        _PREV_SIGTERM = previous


class _SnapshotRing:
    """A shared-memory ring of posterior snapshots for one attached engine.

    One float64 row per slot, each the full support-aligned probability
    vector.  The parent owns the segment: it publishes a reweighted posterior
    with :meth:`publish` (slot chosen by generation), workers read their slot
    with :meth:`read`.  Workers inherit the mapped segment at fork time —
    shared, not copy-on-write — so a publish after the fork is immediately
    visible to every worker without any pickling or re-attach.
    """

    def __init__(self, support_size: int, slots: int = _SNAPSHOT_SLOTS):
        self._slots = slots
        self._support_size = support_size
        self._owner_pid = os.getpid()
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, slots * support_size * 8)
        )
        self._array = np.ndarray(
            (slots, support_size), dtype=np.float64, buffer=self._shm.buf
        )
        _ensure_ring_guard()
        _LIVE_RINGS.add(self)

    def publish(self, generation: int, probabilities: np.ndarray) -> int:
        """Copy ``probabilities`` into the slot for ``generation``; return it."""
        slot = generation % self._slots
        self._array[slot, :] = probabilities
        return slot

    def read(self, slot: int) -> np.ndarray:
        """The snapshot in ``slot``, as a *view* of the shared segment.

        Callers must copy before keeping it (``EntropyEngine.
        load_probabilities`` does) — a later :meth:`publish` to the same slot
        would mutate the view in place.  Returning the view keeps the worker
        sync path at exactly one full-support copy per generation.
        """
        return self._array[slot]

    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks the segment.

        Idempotent, and safe in fork children: only the creating process
        unlinks (a worker closing its inherited handle must not destroy the
        segment the parent and its siblings still share).
        """
        if self._shm is None:
            return
        # The ndarray view pins the exported buffer; drop it before closing.
        self._array = None
        self._shm.close()
        if self._owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._shm = None
        _LIVE_RINGS.discard(self)


@dataclass(frozen=True)
class ParallelPolicy:
    """When and how to shard candidate evaluations across processes.

    Attributes
    ----------
    workers:
        Worker processes to use; ``None`` means one per available CPU.
        A resolved count below two always selects the serial path.
    parallel_threshold:
        Minimum work size (candidates × support rows) of one iteration's scan
        before the pool is used; smaller scans run serially so that small
        rounds never regress.  Zero forces parallelism whenever possible.
    max_rebuilds:
        Consecutive crashed dispatches the supervisor absorbs (rebuilding the
        pool after each) before the circuit breaker trips and the evaluator
        degrades to the serial path for the rest of its life.
    dispatch_timeout:
        Wall-clock seconds one dispatch may take before the supervisor
        declares the pool hung and treats it as crashed; ``None`` (the
        default) disables the timeout — a healthy scan's duration scales with
        corpus size, so there is no safe universal default.
    heartbeat:
        Seconds between the supervisor's liveness probes of the worker
        processes while a dispatch is in flight.
    """

    workers: Optional[int] = None
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    max_rebuilds: int = 2
    dispatch_timeout: Optional[float] = None
    heartbeat: float = 0.05

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise SelectionError(f"workers must be positive, got {self.workers}")
        if self.parallel_threshold < 0:
            raise SelectionError(
                f"parallel_threshold must be non-negative, got {self.parallel_threshold}"
            )
        if self.max_rebuilds < 0:
            raise SelectionError(
                f"max_rebuilds must be non-negative, got {self.max_rebuilds}"
            )
        if self.dispatch_timeout is not None and self.dispatch_timeout <= 0:
            raise SelectionError(
                f"dispatch_timeout must be positive, got {self.dispatch_timeout}"
            )
        if self.heartbeat <= 0:
            raise SelectionError(f"heartbeat must be positive, got {self.heartbeat}")

    def resolved_workers(self) -> int:
        """The worker count this policy resolves to on this machine."""
        if self.workers is not None:
            return self.workers
        return os.cpu_count() or 1

    def should_parallelise(self, num_candidates: int, support_size: int) -> bool:
        """Decide serial vs. parallel for one iteration's candidate scan."""
        if self.resolved_workers() < 2 or not fork_available():
            return False
        if num_candidates < 2:
            return False
        return num_candidates * support_size >= self.parallel_threshold

    def resolved_chunk_size(self, num_candidates: int) -> int:
        """Candidates per chunk for an offset-path scan of ``num_candidates``."""
        per_worker = self.resolved_workers() * _CHUNKS_PER_WORKER
        return max(1, math.ceil(num_candidates / per_worker))


#: Dispatch header: the engine id, the parent engine's ``reweights`` counter,
#: the ring slot its posterior snapshot occupies, its ``channel_swaps``
#: counter, and the current channel model (``None`` while no swap has
#: happened since the fork).
_DispatchHeader = Tuple[int, int, int, int, Optional[ChannelModel]]

#: What a dispatch carries of the parent's selection state: ``(task_ids,
#: table, entropy, joint_entropy, bit_accuracies)``, the arguments of
#: :meth:`EntropyEngine._refresh_state` after the worker's own state.
_StateBasis = Tuple[Tuple[str, ...], np.ndarray, float, float, Optional[np.ndarray]]

#: One chunk's scores: its entropies, joint entropies and the answer-table
#: blocks its scan kept (row indices local to the chunk).
_ChunkScores = Tuple[List[float], List[float], List[tuple]]


def _chunk_indices(
    engine: EntropyEngine,
    state: SelectionState,
    candidates: Sequence[str],
    policy: ParallelPolicy,
) -> List[Sequence[int]]:
    """Candidate indices of each chunk one scan of ``candidates`` dispatches.

    On the histogram path a chunk's cost is one slice histogram per mask
    slice it touches, whatever its candidate count, so the candidates are
    grouped by slice and the sorted slices split into at most one contiguous
    run per worker: each slice histogram is then built exactly once.  The
    offset path keeps order-preserving chunks of
    :meth:`ParallelPolicy.resolved_chunk_size` candidates.
    """
    if engine._uses_histograms(state):
        by_slice: Dict[int, List[int]] = {}
        for index, position in enumerate(engine.distribution.positions(candidates)):
            by_slice.setdefault(position // _SLICE_BITS, []).append(index)
        slices = sorted(by_slice)
        runs = np.array_split(
            np.arange(len(slices)), min(policy.resolved_workers(), len(slices))
        )
        return [
            [index for run_slice in run for index in by_slice[slices[run_slice]]]
            for run in runs
        ]
    size = policy.resolved_chunk_size(len(candidates))
    return [
        range(start, min(start + size, len(candidates)))
        for start in range(0, len(candidates), size)
    ]


def _score_chunk(
    header: _DispatchHeader, basis: _StateBasis, chunk: Sequence[str]
) -> _ChunkScores:
    """Worker entry point: the scan of ``chunk`` against the parent's state.

    The engine id selects one of the fork-inherited engines.  A stale
    posterior is loaded byte for byte from that engine's snapshot ring and a
    stale channel model is replayed through ``set_channel`` (the same call
    the parent's session made); either sync drops the worker's selection
    state, whose cached tables embed the old probabilities and channel
    accuracies.  The state is then brought up to the parent's: it records
    the bit column of each newly committed task (of every task when the
    prefix no longer matches — a fresh selection), adopts its scores from
    ``basis``, and the scan refines its partition.  Per-engine states live in
    :data:`_WORKER_STATES`, so interleaved dispatches for different engines
    never invalidate each other's incremental state.
    """
    faults.fire("worker_dispatch")
    engines = _FORK_ENGINES
    rings = _FORK_RING_MAP
    if engines is None or rings is None:
        # A respawned worker (the pool's maintenance thread replaced a dead
        # one) never went through our supervised fork and has no engines;
        # the supervisor turns this into a full rebuild.
        raise WorkerSyncError(
            "pool worker started without a fork-shared engine registry"
        )
    engine_id, reweights, slot, channel_swaps, channel = header
    engine = engines.get(engine_id)
    if engine is None:
        raise WorkerSyncError(
            f"pool worker has no fork-inherited engine {engine_id} "
            "(the pool should have re-forked after the attach)"
        )
    if reweights != engine.reweights:
        engine.load_probabilities(rings[engine_id].read(slot), reweights)
        _WORKER_STATES.pop(engine_id, None)
    if channel_swaps != engine.channel_swaps:
        if channel is None:
            raise WorkerSyncError(
                "dispatch header advanced the channel generation without "
                "shipping the channel model"
            )
        engine.set_channel(channel)
        engine.channel_swaps = channel_swaps
        _WORKER_STATES.pop(engine_id, None)
    state = engine._refresh_state(_WORKER_STATES.get(engine_id), *basis)
    _WORKER_STATES[engine_id] = state
    scan = engine.scan(state, chunk)
    return scan.entropies, scan.joint_entropies, scan._blocks


def _supervised_map(
    pool, procs, worker, chunks, policy: ParallelPolicy, chunksize=None
):
    """One crash-aware ``pool.map``: dispatch, watch the workers, collect.

    ``procs`` is the snapshot of worker processes taken immediately after the
    supervised fork — *not* ``pool._pool`` at call time, because the pool's
    maintenance thread silently replaces dead workers (with processes that
    never inherited the engine) and would hide the death from a late
    snapshot.  Raises :class:`WorkerCrashError` when a snapshot worker has
    died, the dispatch exceeds ``policy.dispatch_timeout``, or a worker
    reported :class:`WorkerSyncError`; any other worker exception (an
    application-level scoring error) propagates unchanged.  ``chunksize``
    goes to ``map_async`` (``None`` keeps its default batching).
    """
    for proc in procs:
        if proc.exitcode is not None:
            raise WorkerCrashError(
                f"pool worker {proc.pid} died with exit code {proc.exitcode} "
                "before dispatch"
            )
    result = pool.map_async(worker, chunks, chunksize)
    timeout = policy.dispatch_timeout
    deadline = None if timeout is None else time.monotonic() + timeout
    while not result.ready():
        result.wait(policy.heartbeat)
        if result.ready():
            break
        for proc in procs:
            if proc.exitcode is not None:
                raise WorkerCrashError(
                    f"pool worker {proc.pid} died with exit code "
                    f"{proc.exitcode} mid-dispatch"
                )
        if deadline is not None and time.monotonic() >= deadline:
            raise WorkerCrashError(
                f"dispatch did not complete within its {timeout:g}s timeout"
            )
    try:
        return result.get()
    except WorkerSyncError as error:
        raise WorkerCrashError(f"pool worker desynchronised: {error}") from error


#: How long a graceful ``Pool.terminate`` may take before the teardown
#: watchdog SIGKILLs the workers.  Generous: a healthy teardown is
#: milliseconds; only a wedged pool ever waits this out.
_TEARDOWN_GRACE = 5.0


def _teardown_pool(pool, procs, grace: float = _TEARDOWN_GRACE) -> None:
    """Terminate a (possibly wedged) fork pool without hanging the caller.

    ``Pool.terminate`` shuts down gracefully — drain the task queue, SIGTERM
    the workers, join everything — and every step of that choreography can
    block forever when a worker died while holding one of the pool's (or the
    application's) fork-shared locks.  A supervisor tearing down a pool it
    already distrusts must not inherit that hang: run the graceful path on a
    watchdog thread, and if it stalls past ``grace``, SIGKILL every worker we
    know about (the fork-time snapshot plus any maintenance respawns).
    Recovery re-forks from the parent's state, so workers hold nothing worth
    a graceful exit.
    """

    def _graceful():
        pool.terminate()
        pool.join()

    thread = threading.Thread(
        target=_graceful, name="repro-pool-teardown", daemon=True
    )
    thread.start()
    thread.join(grace)
    if not thread.is_alive():
        return
    stragglers = {id(proc): proc for proc in procs}
    for proc in list(getattr(pool, "_pool", ()) or ()):
        stragglers.setdefault(id(proc), proc)
    _LOGGER.warning(
        "pool teardown stalled for %.1fs; hard-killing %d worker(s)",
        grace,
        len(stragglers),
    )
    for proc in stragglers.values():
        try:
            if proc.is_alive():
                proc.kill()
        except Exception:  # pragma: no cover - best effort during teardown
            pass
    thread.join(grace)
    if thread.is_alive():  # pragma: no cover - should be unreachable
        _LOGGER.error(
            "pool teardown did not complete after hard-killing its workers; "
            "abandoning the teardown thread"
        )


@dataclass
class _Attachment:
    """Parent-side bookkeeping for one engine attached to a pool."""

    engine: EntropyEngine
    ring: _SnapshotRing
    #: Last posterior generation published into the ring (fork-time value
    #: until the first post-fork reweight — workers inherited that posterior).
    published_reweights: int = 0
    published_slot: int = -1
    #: Channel generation the workers inherited at fork; the channel model is
    #: shipped in the header only while the engine has swapped past it.
    fork_channel_swaps: int = 0


class EvaluatorPool:
    """The candidate-scan worker pool: one fork pool serving many engines.

    Any number of engines are :meth:`attach`-ed to the pool, each identified
    by a small integer engine id that every dispatch header carries.
    Workers inherit the whole engine registry (plus one snapshot ring per
    engine) at fork time and sync each engine's posterior and channel from
    the header, so interleaved selections from many refinement sessions
    share one set of worker processes, and each session's scores stay
    bit-for-bit identical to its serial path.  A session with a parallel
    policy owns a private pool with its engine as the only attachment; an
    experiment attaches all of its entities to one pool; a service
    multiplexes its tenants onto a fixed set of pools.

    Attaching an engine *after* the pool has forked marks the pool stale: the
    next dispatch tears the old pool down and forks once with the full
    registry (:attr:`reforks` counts these).  Attach every engine before the
    first scan and the pool forks exactly once.

    The pool is thread-safe: dispatches from concurrent server executors are
    serialised by an internal lock (worker processes, not caller threads, are
    the parallelism), and :meth:`close` may be called from any thread.
    Detached engines release their ring immediately; their fork-inherited
    copy inside the workers is unreachable dead weight until the next refork.
    """

    def __init__(self, policy: ParallelPolicy):
        if policy.resolved_workers() >= 2 and not fork_available():
            warnings.warn(
                "this platform has no fork start method, so the evaluator "
                "pool cannot engage; all candidate scans will run serially",
                RuntimeWarning,
                stacklevel=2,
            )
        self._policy = policy
        self._attachments: Dict[int, _Attachment] = {}
        self._pool = None
        self._procs: Tuple = ()
        self._stale = False
        self._broken = False
        self._next_id = 0
        self._lock = threading.Lock()
        self.workers = 0
        self.dispatches = 0
        self.reforks = 0
        self.worker_crashes = 0
        self.pool_rebuilds = 0
        self.breaker_trips = 0

    @property
    def policy(self) -> ParallelPolicy:
        """The sharding policy every attached engine is scored under."""
        return self._policy

    @property
    def attached(self) -> int:
        """Number of engines currently attached to this pool."""
        with self._lock:
            return len(self._attachments)

    @property
    def forked(self) -> bool:
        """Whether the shared worker pool is currently alive."""
        return self._pool is not None

    @property
    def degraded(self) -> bool:
        """Whether the breaker has pinned this shared pool to serial scans."""
        return self._broken

    def attach(self, engine: EntropyEngine) -> "PooledEvaluator":
        """Register ``engine`` and return its evaluator facade.

        The facade satisfies the same evaluator interface session-aware
        selectors consume (:meth:`PooledEvaluator.evaluate` and friends);
        closing it detaches the engine without touching other tenants.
        """
        with self._lock:
            engine_id = self._next_id
            self._next_id += 1
            self._attachments[engine_id] = _Attachment(
                engine=engine,
                ring=_SnapshotRing(engine.probabilities.shape[0]),
            )
            if self._pool is not None:
                # The running workers never inherited this engine; re-fork
                # lazily on the next dispatch that needs the pool.
                self._stale = True
        return PooledEvaluator(self, engine_id, engine)

    def detach(self, engine_id: int) -> None:
        """Release one engine's ring and registry slot (idempotent).

        The shared pool keeps running for the remaining tenants; when the
        last engine detaches the worker processes are reclaimed too (a later
        attach simply forks a fresh pool).
        """
        with self._lock:
            attachment = self._attachments.pop(engine_id, None)
            if attachment is not None:
                attachment.ring.close()
            if not self._attachments:
                self._terminate_pool()

    def close(self) -> None:
        """Detach every engine and terminate the worker pool (idempotent)."""
        with self._lock:
            for attachment in self._attachments.values():
                attachment.ring.close()
            self._attachments.clear()
            self._terminate_pool()

    def __enter__(self) -> "EvaluatorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _terminate_pool(self) -> None:
        """Tear down the fork pool; caller holds the lock."""
        if self._pool is not None:
            _teardown_pool(self._pool, self._procs)
            self._pool = None
        self._procs = ()
        self._stale = False

    def _ensure_pool(self):
        """Fork (or re-fork) the shared pool with the full current registry."""
        if self._pool is not None and not self._stale:
            return self._pool
        if self._pool is not None:
            self._terminate_pool()
            self.reforks += 1
        global _FORK_ENGINES, _FORK_RING_MAP
        context = multiprocessing.get_context("fork")
        self.workers = self._policy.resolved_workers()
        for attachment in self._attachments.values():
            # Workers inherit each engine's current posterior and channel;
            # reset the generation baselines the headers diff against.
            attachment.published_reweights = attachment.engine.reweights
            attachment.published_slot = -1
            attachment.fork_channel_swaps = attachment.engine.channel_swaps
        # The module lock makes publish → fork → clear atomic across pools:
        # engine ids are per-pool counters, so a concurrent fork inheriting
        # another pool's registry would cross-wire tenants (see the lock's
        # docstring).
        with _FORK_PUBLISH_LOCK:
            _FORK_ENGINES = {
                engine_id: attachment.engine
                for engine_id, attachment in self._attachments.items()
            }
            _FORK_RING_MAP = {
                engine_id: attachment.ring
                for engine_id, attachment in self._attachments.items()
            }
            try:
                self._pool = context.Pool(processes=self.workers)
            finally:
                _FORK_ENGINES = None
                _FORK_RING_MAP = None
        # Supervisor snapshot — must be taken before the maintenance thread
        # has any chance to swap a dead worker for an engine-less respawn.
        self._procs = tuple(self._pool._pool)
        self._stale = False
        return self._pool

    def _header(self, engine_id: int, attachment: _Attachment) -> _DispatchHeader:
        """Publish any pending snapshot; return the dispatch header."""
        engine = attachment.engine
        if engine.reweights != attachment.published_reweights:
            attachment.published_slot = attachment.ring.publish(
                engine.reweights, engine.probabilities
            )
            attachment.published_reweights = engine.reweights
        channel = (
            engine.crowd
            if engine.channel_swaps != attachment.fork_channel_swaps
            else None
        )
        return (
            engine_id,
            engine.reweights,
            attachment.published_slot,
            engine.channel_swaps,
            channel,
        )

    def evaluate(
        self, engine_id: int, state: SelectionState, candidates: Sequence[str]
    ) -> "Tuple[Optional[CandidateScan], int]":
        """Scan ``candidates`` for one attached engine.

        Returns ``(scan, chunk_size)``: the scan holds every candidate's
        floats in candidate order, bit for bit those of
        :meth:`EntropyEngine.scan`, and the answer tables the workers kept,
        so ``extend(state, winner, scan)`` scores nothing; ``chunk_size`` is
        the largest chunk's candidate count.  The scan is ``None`` when the
        policy elects the serial path for this scan (too little work, too few
        workers, no ``fork`` support) and when the pool's circuit breaker has
        tripped — the caller then runs its ordinary in-process loop.

        Dispatches are supervised: a crashed or hung worker aborts the
        dispatch and the whole pool is rebuilt (every attachment's generation
        baselines reset to its engine's current state, so every engine's
        recovered scans stay bit-identical to serial); after
        ``policy.max_rebuilds`` consecutive failures the breaker degrades the
        pool to serial for all engines rather than erroring any of them.
        """
        with self._lock:
            try:
                attachment = self._attachments[engine_id]
            except KeyError:
                raise SelectionError(
                    f"engine {engine_id} is not attached to this evaluator pool "
                    "(was the session already evicted?)"
                ) from None
            support_size = attachment.engine.support_masks.shape[0]
            if not self._policy.should_parallelise(len(candidates), support_size):
                return None, 0
            if self._broken:
                return None, 0
            candidates = tuple(candidates)
            indices = _chunk_indices(attachment.engine, state, candidates, self._policy)
            chunks = [[candidates[index] for index in chunk] for chunk in indices]
            basis = (
                state.task_ids,
                state.table,
                state.entropy,
                state.joint_entropy,
                state.bit_accuracies,
            )
            crashes = 0
            while True:
                pool = self._ensure_pool()
                directive = faults.fire("pool_dispatch")
                header = self._header(engine_id, attachment)
                if directive == "corrupt_header":
                    hdr_engine_id, reweights, slot, channel_swaps, _channel = header
                    header = (hdr_engine_id, reweights, slot, channel_swaps + 1, None)
                worker = partial(_score_chunk, header, basis)
                try:
                    scored = _supervised_map(
                        pool, self._procs, worker, chunks, self._policy
                    )
                except WorkerCrashError as crash:
                    crashes += 1
                    self.worker_crashes += 1
                    self._terminate_pool()
                    if crashes > self._policy.max_rebuilds:
                        self._broken = True
                        self.breaker_trips += 1
                        _LOGGER.warning(
                            "shared pool circuit breaker tripped after %d "
                            "crashed dispatches; all %d attached engines "
                            "degrade to serial evaluation (%s)",
                            crashes,
                            len(self._attachments),
                            crash,
                        )
                        return None, 0
                    self.pool_rebuilds += 1
                    _LOGGER.warning(
                        "shared pool dispatch crashed (%s); rebuilding pool "
                        "(attempt %d/%d)",
                        crash,
                        crashes,
                        self._policy.max_rebuilds,
                    )
                    continue
                self.dispatches += 1
                break
        scan = CandidateScan._gather(
            state,
            candidates,
            [(chunk, *scores) for chunk, scores in zip(indices, scored)],
        )
        return scan, max(len(chunk) for chunk in chunks)


class PooledEvaluator:
    """One engine's handle on an :class:`EvaluatorPool`.

    The evaluator interface the session-aware greedy family consumes
    (``evaluate`` / ``would_parallelise`` / ``refresh_batch_size`` plus the
    ``workers`` / ``chunk_size`` / ``parallel_evaluations`` counters of this
    engine's scans, and the pool's recovery totals).  A
    :class:`~repro.core.selection.session.RefinementSession` hands it out
    from ``shared_evaluator()``.  Closing the handle detaches only this
    engine.
    """

    def __init__(self, pool: EvaluatorPool, engine_id: int, engine: EntropyEngine):
        self._shared_pool = pool
        self._engine_id = engine_id
        self._engine = engine
        self._closed = False
        self.workers = 0
        self.chunk_size = 0
        self.parallel_evaluations = 0

    @property
    def degraded(self) -> bool:
        """Whether the pool's breaker has pinned this engine to serial."""
        return self._shared_pool.degraded

    @property
    def worker_crashes(self) -> int:
        """Dispatches the pool's supervisor aborted (all engines' scans)."""
        return self._shared_pool.worker_crashes

    @property
    def pool_rebuilds(self) -> int:
        """Transparent pool rebuilds after crashed dispatches (pool total)."""
        return self._shared_pool.pool_rebuilds

    @property
    def breaker_trips(self) -> int:
        """Circuit-breaker trips of the pool (at most one: it stays serial)."""
        return self._shared_pool.breaker_trips

    def would_parallelise(self, num_candidates: int) -> bool:
        """Whether a scan of ``num_candidates`` would engage the pool.

        Lets batching callers (the CELF wave loop) avoid assembling a batch
        that :meth:`evaluate` would only hand back for in-process scoring.
        """
        return self._shared_pool.policy.should_parallelise(
            num_candidates, self._engine.support_masks.shape[0]
        )

    def refresh_batch_size(self) -> int:
        """Candidates a lazy (CELF) selector should refresh per wave.

        Several candidates per worker, so a wave that clears the policy
        threshold saturates the pool; few enough that lazy evaluation still
        skips the long tail of stale candidates.
        """
        return max(1, self._shared_pool.policy.resolved_workers() * _CHUNKS_PER_WORKER)

    def evaluate(
        self, state: SelectionState, candidates: Sequence[str]
    ) -> Optional[CandidateScan]:
        """Scan ``candidates`` through the pool (``None`` = go serial)."""
        if self._closed:
            raise SelectionError(
                "this pooled evaluator has been closed; its session no longer "
                "owns a slot on the evaluator pool"
            )
        scan, chunk_size = self._shared_pool.evaluate(
            self._engine_id, state, candidates
        )
        if scan is not None:
            self.parallel_evaluations += len(candidates)
            self.chunk_size = chunk_size
            self.workers = self._shared_pool.workers
        return scan

    def close(self) -> None:
        """Detach this engine from the pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._shared_pool.detach(self._engine_id)

    def __enter__(self) -> "PooledEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ParallelSelectorMixin:
    """Parallel-scan wiring shared by the greedy selector family.

    Selectors carry no parallel configuration of their own: worker pools
    belong to refinement sessions
    (:class:`~repro.core.selection.session.RefinementSession`).  A selector
    mixing this in implements ``_runner(engine, k, candidates, evaluator)``;
    its session-path selections run through the session's
    ``shared_evaluator()`` when the session has one, and serially otherwise.

    The auto-serial decision is made once per selection: every scan of a
    selection scores a subset of its candidates, so when the full candidate
    list stays under the policy's threshold no later scan can cross it, and
    the selection runs without touching the evaluator (or its lock).

    The per-selection ``SelectionStats`` report only what *this* selection
    used: the evaluator's cumulative counters span many selections, so they
    are differenced around the call, and a call whose scans all stayed under
    the auto-serial threshold reports zero workers even though the
    long-lived pool exists.
    """

    def _select_with_session(self, session, k, candidates) -> SelectionResult:
        evaluator = session.shared_evaluator()
        if evaluator is None or not evaluator.would_parallelise(len(candidates)):
            return self._runner(session.engine, k, candidates, None)
        before = evaluator.parallel_evaluations
        result = self._runner(session.engine, k, candidates, evaluator)
        served = evaluator.parallel_evaluations - before
        result.stats.parallel_evaluations = served
        result.stats.workers = evaluator.workers if served else 0
        result.stats.chunk_size = evaluator.chunk_size if served else 0
        return result
