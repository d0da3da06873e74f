"""Durable session snapshots for the refinement service.

:class:`SessionSnapshotStore` persists one JSON file per session — the
posterior support (via the wire codec, so floats round-trip exactly), the
channel state, the selector name and the budget ledger — using the same
atomic tmp-write-then-rename substrate the experiment orchestrator
checkpoints with (:func:`repro.orchestration.journal.atomic_write_json`).
The registry writes snapshots after merges (debounced) and on eviction, and
rebuilds sessions from them on server restart or when an evicted tenant
comes back: the stored posterior becomes the revived session's prior, which
reproduces every marginal to within float-serialisation exactness.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, List, Optional

from repro.core.crowd import ChannelModel
from repro.core.selection.session import RefinementSession
from repro.orchestration.journal import atomic_write_json, read_json
from repro.service.api import (
    UnknownSessionError,
    ValidationFailedError,
    decode_channel,
    decode_distribution,
    encode_channel,
    encode_distribution,
)

#: Snapshot schema version (bumped on incompatible payload changes).
SNAPSHOT_VERSION = 1

#: The form of every id the registry hands out.  An id of any other form
#: names no session, so a client's id never reaches a path outside the
#: directory.
_SESSION_ID = re.compile(r"s-[0-9]+")


class SessionSnapshotStore:
    """One JSON snapshot file per session, written atomically."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, session_id: str) -> str:
        if not _SESSION_ID.fullmatch(session_id):
            raise UnknownSessionError(f"no session {session_id!r}")
        return os.path.join(self.directory, f"{session_id}.json")

    def exists(self, session_id: str) -> bool:
        """Whether ``session_id`` has a snapshot on disk."""
        return os.path.exists(self._path(session_id))

    def save(
        self,
        session_id: str,
        session: RefinementSession,
        selector_name: str,
        budget: int,
        spent: int,
    ) -> None:
        """Snapshot one session's durable state (posterior, channel, ledger)."""
        atomic_write_json(
            self._path(session_id),
            {
                "version": SNAPSHOT_VERSION,
                "session_id": session_id,
                "selector": selector_name,
                "budget": budget,
                "spent": spent,
                "rounds_merged": session.rounds_merged,
                "channel": encode_channel(session.channel),
                "posterior": encode_distribution(session.distribution),
            },
        )

    def load(self, session_id: str) -> Optional[Dict[str, Any]]:
        """The raw snapshot payload, or ``None`` when none exists."""
        payload = read_json(self._path(session_id))
        if payload is None:
            return None
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationFailedError(
                f"session snapshot {session_id} has version "
                f"{payload.get('version')!r}; this build reads version "
                f"{SNAPSHOT_VERSION}"
            )
        return payload

    def delete(self, session_id: str) -> None:
        """Remove a session's snapshot (deliberate close, not eviction)."""
        try:
            os.unlink(self._path(session_id))
        except FileNotFoundError:
            pass

    def stored_ids(self) -> List[str]:
        """Session ids with a snapshot on disk, sorted."""
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.directory)
            if name.endswith(".json") and _SESSION_ID.fullmatch(name[: -len(".json")])
        )


def decode_snapshot(payload: Dict[str, Any]) -> "tuple[Any, ChannelModel]":
    """The (distribution, channel) pair a snapshot rebuilds a session from."""
    return (
        decode_distribution(payload["posterior"]),
        decode_channel(payload["channel"]),
    )
