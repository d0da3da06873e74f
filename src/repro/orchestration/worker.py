"""The JSON codec of one entity trajectory, as the wire and journals carry it.

A worker sends each finished
:class:`~repro.evaluation.experiment.EntityTrajectory` to the coordinator
as :func:`trajectory_to_payload`, the coordinator journals that payload,
and :func:`~repro.orchestration.orchestrator.assemble_result` reads it back
with :func:`trajectory_from_payload`.  JSON serialises floats with
``repr``, so a trajectory survives the round trip bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.evaluation.experiment import EntityTrajectory, TrajectoryRound


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
