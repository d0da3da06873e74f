"""Crash-safe journal, checkpoint and lock primitives for run directories.

Three durability building blocks, shared by the experiment orchestrator and
the service session snapshot store:

* :class:`JournalWriter` / :func:`read_records` — an append-only JSON-lines
  event log.  ``append`` flushes and ``fsync``'s each record before the
  caller proceeds; ``write`` + ``sync`` group-commit a batch of records
  with one ``fsync``.  Either way a record either made it to disk whole or
  the reader sees (at most) one torn trailing line, which it silently
  drops — exactly the state a crash between ``write`` and ``fsync`` can
  leave behind.
* :func:`atomic_write_json` / :func:`read_json` — tmp-write, fsync, rename,
  directory-fsync checkpoints.  ``rename`` is atomic on POSIX, so a reader
  observes either the previous checkpoint or the new one, never a torn file;
  stale ``*.tmp`` leftovers from a crash are ignored (and reaped on the next
  successful write).
* :class:`RunLock` — a pid lock file guarding a run directory.  A lock held
  by a live process refuses the acquire; a lock left behind by a dead pid is
  taken over (under a kernel ``flock`` guard, so racing takeovers
  serialize), and a SIGKILL'd orchestrator never bricks its run directory.

Every durability-relevant syscall path has a fault hook
(:mod:`repro.testing.faults`): ``journal_append`` can return ``"enospc"``
(``write``, and so ``append``, raises :class:`OSError` with ``ENOSPC``
*before* writing),
``checkpoint_write`` can return ``"torn"`` (half the payload is written to
the tmp file and the rename is skipped — simulating a kill mid-write), and
``run_lock`` can return ``"stale_lock"`` (a dead-pid lock file is planted
before the acquire, forcing the takeover path).
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.exceptions import OrchestrationError
from repro.service.api import decode_json_line
from repro.testing import faults


def _fsync_dir(directory: str) -> None:
    """Flush directory metadata (the rename itself) to disk, best effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _encode(record: Dict[str, Any]) -> str:
    """One journal line: compact JSON, stable key order, exact float repr.

    ``json`` serialises floats with ``repr``, which round-trips IEEE-754
    doubles exactly — the property that makes journalled trajectories
    bit-identical on resume.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JournalWriter:
    """Append-only JSON-lines journal with group commit.

    ``write`` only buffers a record in this process; ``sync`` hands every
    buffered record to the file and ``fsync``'s once.  Nothing reaches the
    file between two syncs, so a crash loses exactly the records written
    since the last sync, and the journals of one run reach the disk in the
    order their ``sync`` calls run.  ``append`` is ``write`` + ``sync``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._pending: List[str] = []

    def write(self, record: Dict[str, Any]) -> None:
        """Buffer one record until the next :meth:`sync`.

        Raises ``OSError`` on a full disk (the ``journal_append`` fault
        hook fires here, before the record is buffered).
        """
        directive = faults.fire("journal_append", path=self.path)
        if directive == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        self._pending.append(_encode(record) + "\n")

    def sync(self) -> None:
        """Write and ``fsync`` every buffered record; a no-op when none is."""
        if not self._pending:
            return
        data, self._pending = "".join(self._pending), []
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record; raises ``OSError`` on a full disk."""
        self.write(record)
        self.sync()

    def close(self) -> None:
        """Sync what is still buffered, then close the file."""
        if not self._handle.closed:
            try:
                self.sync()
            finally:
                self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_records(path: str) -> List[Dict[str, Any]]:
    """Read every whole record from a journal, dropping a torn trailing line.

    A line that does not decode to one JSON object counts as torn.  A torn
    line anywhere *except* the tail means the file was corrupted by
    something other than a crash mid-append and raises
    :class:`OrchestrationError` — resuming from a lying journal silently
    would be worse than failing loudly.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    # A well-formed journal ends with a newline, so the final split element
    # is empty; anything else is the torn tail of an interrupted append.
    if lines and lines[-1] == b"":
        lines.pop()
    records: List[Dict[str, Any]] = []
    for position, line in enumerate(lines):
        try:
            record = decode_json_line(line)
            if not isinstance(record, dict):
                raise ValueError("a journal record must be a JSON object")
            records.append(record)
        except ValueError:
            if position == len(lines) - 1:
                break  # torn trailing line from a crash mid-append
            raise OrchestrationError(
                f"journal {path} is corrupt at line {position + 1} "
                "(torn records are only tolerated at the tail)"
            )
    return records


def merge_journals(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Merge per-worker journals into one deterministic record stream.

    Each journal is read with :func:`read_records` independently, so the
    one-torn-trailing-line tolerance applies **per journal**: a shard worker
    SIGKILLed mid-append leaves a torn tail in *its* file, and that file is
    not the last one in merge order — the tolerance must travel with the
    file, not with the concatenation.  Records are ordered deterministically
    (sorted journal path, then in-file position).

    ``entity_done`` records are deduplicated by entity index — duplicated
    delivery is legal at this layer (a retransmit racing its original, a
    reassigned range completed twice) as long as the payloads agree; the
    first copy in merge order wins.  Conflicting payloads for the same
    entity mean the bit-identity guarantee is already broken upstream and
    raise :class:`OrchestrationError` rather than silently assembling a
    curve from diverging trajectories.
    """
    merged: List[Dict[str, Any]] = []
    done: Dict[int, Dict[str, Any]] = {}
    for path in sorted(paths):
        for record in read_records(path):
            if record.get("type") == "entity_done":
                index = int(record["index"])
                previous = done.get(index)
                if previous is not None:
                    if previous.get("payload") != record.get("payload"):
                        raise OrchestrationError(
                            f"conflicting entity_done payloads for entity "
                            f"{index} across merged journals (second copy in "
                            f"{path}); the per-entity seed derivation should "
                            "make duplicates identical — refusing to merge"
                        )
                    continue
                done[index] = record
            merged.append(record)
    return merged


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename).

    After this returns the file is durably the new payload; if the process
    dies anywhere inside, the previous file content is untouched and at most
    a ``*.tmp`` sibling is left behind (cleaned up by the next write and
    ignored by :func:`read_json`).
    """
    directive = faults.fire("checkpoint_write", path=path)
    tmp_path = path + ".tmp"
    data = _encode(payload)
    if directive == "torn":
        # Simulate a kill halfway through the tmp write: flush a prefix of
        # the payload, skip the rename, and die the way a SIGKILL would.
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
        raise faults.FaultInjected(f"injected torn checkpoint write ({path})")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp_path, path)
    _fsync_dir(os.path.dirname(path) or ".")


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """Read an atomic-write checkpoint; ``None`` when it does not exist.

    ``*.tmp`` leftovers are never read — they are, by construction, the
    possibly-torn half of a write that did not commit.
    """
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.loads(handle.read())


#: Bounded retries for the in-flux windows of a racing acquire: a lock file
#: observed empty (holder mid-write) or vanishing (holder mid-takeover).
_ACQUIRE_ATTEMPTS = 50
_ACQUIRE_BACKOFF_S = 0.01


class RunLock:
    """Pid lock file guarding a run directory against concurrent writers.

    ``acquire`` refuses when the recorded pid is alive, takes over when it is
    dead (a crashed orchestrator must not brick its run directory), and
    creates its own lock with ``O_CREAT|O_EXCL`` so two racing acquirers
    serialize in the kernel: exactly one creation succeeds.  Stale-lock
    takeover runs under an exclusive ``flock`` on a sibling ``<lock>.guard``
    file: the taker re-reads the holder under the guard and only removes the
    lock if it still names the dead pid, then creates its own before letting
    go.  Without the guard a racer could replace the stale lock with its own
    live one between the liveness check and the removal, and have it removed
    from under it.  The kernel drops a ``flock`` when its holder dies, so
    the guard itself can never go stale.  The loser of a race re-reads the
    winner's fresh lock and refuses with a clear error.  ``release`` only
    removes the lock when it still belongs to this process.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._owned = False

    def acquire(self) -> None:
        directive = faults.fire("run_lock", path=self.path)
        if directive == "stale_lock":
            # Plant a lock from a guaranteed-dead pid so the takeover path
            # runs deterministically under test.
            atomic_write_json(self.path, {"pid": _dead_pid()})
        unreadable = 0
        for attempt in range(_ACQUIRE_ATTEMPTS):
            if self._try_create():
                return
            holder_pid = self._holder_pid()
            if holder_pid is None:
                # The lock vanished (a racing takeover in flight) or its
                # creator is between open and write; back off briefly and
                # look again.  A lock that stays unreadable for half the
                # retry budget is the debris of a crash inside that window —
                # fall through and treat it as stale.
                unreadable += 1
                if unreadable < _ACQUIRE_ATTEMPTS // 2:
                    time.sleep(_ACQUIRE_BACKOFF_S)
                    continue
                holder_pid = -1
            if holder_pid == os.getpid():
                self._owned = True  # re-entrant acquire by the same process
                return
            if holder_pid > 0 and _pid_alive(holder_pid):
                raise OrchestrationError(
                    f"run directory is locked by live process {holder_pid} "
                    f"({self.path}); refusing concurrent access"
                )
            with self._takeover_guard():
                # Re-read under the guard: another racer may have taken the
                # stale lock over since we judged it dead.
                current = self._holder_pid()
                if (current if current is not None else -1) != holder_pid:
                    continue  # the lock changed hands; judge it afresh
                grave = f"{self.path}.stale.{os.getpid()}.{attempt}"
                try:
                    os.rename(self.path, grave)
                except FileNotFoundError:
                    continue  # vanished: its holder released it
                try:
                    os.unlink(grave)
                except OSError:  # pragma: no cover - already reaped
                    pass
                if self._try_create():
                    return
        raise OrchestrationError(
            f"could not acquire run lock {self.path}: the lock file kept "
            f"changing hands for {_ACQUIRE_ATTEMPTS} attempts"
        )

    @contextlib.contextmanager
    def _takeover_guard(self) -> Iterator[None]:
        """Hold an exclusive ``flock`` on ``<lock>.guard`` for the block."""
        fd = os.open(self.path + ".guard", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the flock

    def _try_create(self) -> bool:
        """Atomically create the lock file; ``True`` when this process now owns it."""
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, (_encode({"pid": os.getpid()}) + "\n").encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._owned = True
        return True

    def _holder_pid(self) -> Optional[int]:
        """The pid recorded in the lock file; ``None`` when missing or unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.loads(handle.read())
            return int(payload.get("pid", -1))
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        if not self._owned:
            return
        self._owned = False
        holder = read_json(self.path)
        if holder is not None and int(holder.get("pid", -1)) == os.getpid():
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "RunLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - live but not ours
        return True
    return True


def _dead_pid() -> int:
    """A pid that is certainly not a live process (for the stale-lock fault)."""
    child = os.fork()
    if child == 0:
        os._exit(0)
    os.waitpid(child, 0)
    return child
