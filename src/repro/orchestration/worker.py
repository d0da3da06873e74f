"""Shard worker processes for the durable experiment orchestrator.

A shard is a fork-context child process that loops: receive an entity index
over its pipe, run that entity's complete refinement trajectory with the
shared :func:`~repro.evaluation.experiment.run_entity_trajectory` (identical
seed derivation to the serial loop and the in-memory fan-out), reply with
the JSON-ready trajectory payload, repeat until the parent sends ``None``.

The work tuple (problems, config, budget overrides) is published through the
module global :data:`_SHARD_CONTEXT` immediately before the fork — children
inherit it through copy-on-write memory, only indices and result payloads
cross the pipe.  Shards are daemonic, run sessions serially (no nested
pools), and hit the ``shard_entity`` fault point before every entity so the
chaos suite can kill or fail them at a precise position.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.experiment import (
    EntityProblem,
    EntityTrajectory,
    ExperimentConfig,
    TrajectoryRound,
    run_entity_trajectory,
)
from repro.testing import faults

#: Work published to shard processes before the fork:
#: ``(problems, config, budget_overrides)``.
_SHARD_CONTEXT: Optional[
    Tuple[List[EntityProblem], ExperimentConfig, Dict[str, int]]
] = None


def trajectory_to_payload(trajectory: EntityTrajectory) -> Dict[str, Any]:
    """JSON-ready dict for one trajectory (floats round-trip exactly)."""
    return {
        "initial_cost": trajectory.initial_cost,
        "initial_utility": trajectory.initial_utility,
        "initial_labels": dict(trajectory.initial_labels),
        "rounds": [
            {
                "tasks_asked": record.tasks_asked,
                "utility": record.utility,
                "labels": dict(record.labels),
            }
            for record in trajectory.rounds
        ],
    }


def trajectory_from_payload(payload: Dict[str, Any]) -> EntityTrajectory:
    """Inverse of :func:`trajectory_to_payload`."""
    return EntityTrajectory(
        initial_cost=int(payload["initial_cost"]),
        initial_utility=float(payload["initial_utility"]),
        initial_labels={k: bool(v) for k, v in payload["initial_labels"].items()},
        rounds=[
            TrajectoryRound(
                tasks_asked=int(record["tasks_asked"]),
                utility=float(record["utility"]),
                labels={k: bool(v) for k, v in record["labels"].items()},
            )
            for record in payload["rounds"]
        ],
    )


def shard_main(
    connection: "multiprocessing.connection.Connection",
    inherited: Sequence["multiprocessing.connection.Connection"] = (),
) -> None:
    """Entry point of one shard process: serve entity indices until ``None``.

    Replies are ``("ok", index, payload)`` or ``("error", index, message)``;
    unexpected errors are reported rather than crashing the shard, so one
    poison entity costs one reply, not one process.  The fault point fires
    *before* the trajectory runs — a killed shard therefore dies with the
    entity undone, which is exactly the in-flight state resume must handle.
    ``inherited`` are the orchestrator-side pipe ends the fork copied into
    this process; closing them lets an orchestrator death arrive as EOF,
    on which the shard exits.
    """
    assert _SHARD_CONTEXT is not None, "shard forked without published context"
    for stale in inherited:
        stale.close()
    problems, config, budget_overrides = _SHARD_CONTEXT
    while True:
        try:
            index = connection.recv()
        except EOFError:
            return  # the orchestrator is gone; nobody is left to serve
        if index is None:
            connection.close()
            return
        try:
            faults.fire("shard_entity", index=index)
            trajectory = run_entity_trajectory(
                problems[index], index, config, budget_overrides
            )
        except BaseException as error:  # noqa: BLE001 - reported to the parent
            connection.send(("error", index, f"{type(error).__name__}: {error}"))
        else:
            connection.send(("ok", index, trajectory_to_payload(trajectory)))
