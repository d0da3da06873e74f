"""Typed runtime configuration shared by every execution layer.

:class:`RuntimeOptions` is the single typed carrier for every execution knob
of :class:`~repro.core.engine.CrowdFusionEngine`,
:class:`~repro.evaluation.experiment.ExperimentConfig`,
:class:`~repro.core.selection.session.RefinementSession` and the CLI: build
it once, pass it to any layer, and every layer derives the same
:class:`~repro.core.selection.parallel.ParallelPolicy` and the same validity
rules from it.

The fields mean the same thing everywhere:

``workers``
    Worker processes for parallel candidate scans (``None`` disables
    process-level parallelism; nothing ever forks for a scan).  A session
    given these options owns one worker pool that survives every Bayesian
    merge (posteriors travel through a shared-memory snapshot ring).  An
    experiment refines one entity at a time, each on its own session's
    pool, so at most ``workers`` scan processes are alive.  The durable
    sweeps (:mod:`repro.orchestration`) refuse it.
``parallel_threshold``
    Auto-serial threshold (candidates × support rows) below which a
    configured parallel scan still runs in process (``None`` = library
    default).
``persistent_pool``
    Accepted and ignored: every worker pool persists across merges, so the
    flag no longer selects anything.  Kept so existing callers still
    construct.
``recalibrate``
    Sessions re-estimate per-fact channel accuracies from answer/posterior
    agreement as rounds accumulate.
``parallel_entities``
    Experiment-level fan-out: whole entities run in fork workers (mutually
    exclusive with ``workers``).  Layers below the experiment runner ignore
    it, and the durable sweeps refuse it.
``dispatch_timeout_ms``
    Wall-clock budget for one parallel dispatch before the supervisor
    declares the pool hung and rebuilds it (``None`` disables the timeout).
``max_rebuilds``
    Consecutive crashed dispatches the pool supervisor absorbs before its
    circuit breaker degrades the affected engine(s) to serial evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.selection.parallel import (
    DEFAULT_PARALLEL_THRESHOLD,
    ParallelPolicy,
    fork_available,
)
from repro.exceptions import CrowdFusionError


@dataclass(frozen=True)
class RuntimeOptions:
    """How (and how hard) the refinement runtime may use this machine.

    All fields default to the conservative serial behaviour, so
    ``RuntimeOptions()`` is always valid and means "single process, no
    re-calibration".  Validation happens at construction: an invalid
    combination raises :class:`~repro.exceptions.CrowdFusionError`
    immediately rather than deep inside a run.
    """

    workers: Optional[int] = None
    parallel_threshold: Optional[int] = None
    persistent_pool: bool = False
    recalibrate: bool = False
    parallel_entities: Optional[int] = None
    dispatch_timeout_ms: Optional[int] = None
    max_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise CrowdFusionError(
                f"workers must be a positive integer, got {self.workers}"
            )
        if self.dispatch_timeout_ms is not None and self.dispatch_timeout_ms <= 0:
            raise CrowdFusionError(
                f"dispatch_timeout_ms must be positive, got {self.dispatch_timeout_ms}"
            )
        if self.max_rebuilds < 0:
            raise CrowdFusionError(
                f"max_rebuilds must be non-negative, got {self.max_rebuilds}"
            )
        if self.parallel_threshold is not None and self.parallel_threshold < 0:
            raise CrowdFusionError(
                f"parallel_threshold must be non-negative, got {self.parallel_threshold}"
            )
        if self.parallel_entities is not None and self.parallel_entities < 1:
            raise CrowdFusionError(
                f"parallel_entities must be a positive integer, got "
                f"{self.parallel_entities}"
            )
        if self.parallel_entities is not None and self.workers is not None:
            raise CrowdFusionError(
                "parallel_entities and workers are mutually exclusive: entity "
                "fan-out workers are daemonic and cannot fork nested candidate-"
                "scan pools; pick one parallelism axis"
            )
        if self.parallel_entities is not None and not fork_available():
            raise CrowdFusionError(
                "entity fan-out needs the 'fork' start method, which this "
                "platform does not provide"
            )

    @property
    def parallel_policy(self) -> Optional[ParallelPolicy]:
        """The candidate-scan sharding policy these options imply (or ``None``)."""
        if self.workers is None:
            return None
        return ParallelPolicy(
            workers=self.workers,
            parallel_threshold=(
                self.parallel_threshold
                if self.parallel_threshold is not None
                else DEFAULT_PARALLEL_THRESHOLD
            ),
            max_rebuilds=self.max_rebuilds,
            dispatch_timeout=(
                self.dispatch_timeout_ms / 1000.0
                if self.dispatch_timeout_ms is not None
                else None
            ),
        )

    @property
    def parallel(self) -> bool:
        """Whether any process-level parallelism is configured at all."""
        return self.workers is not None or self.parallel_entities is not None
