"""End-to-end quality experiments (Figures 2, 3 and 4 of the paper).

The experiment runner mirrors the paper's setup: every entity (book) gets its
own fact set, prior distribution (from a machine-only fusion method), a task
budget ``B`` and a per-round task count ``k``.  The paper accumulates cost
over the whole collection pass by pass — pass ``r`` is every entity's
``r``-th round — and records the summed utility and the F1-score of the
thresholded labels after each pass, producing the quality-vs-cost curves of
the figures.

Entities are independent, so they are not interleaved: each runs its
complete trajectory (:func:`run_entity_trajectory`: one persistent
:class:`~repro.core.selection.session.RefinementSession` driven by
:func:`~repro.core.engine.refinement_rounds`), and :func:`assemble_curve`
splices the per-round records back into the pass-aligned points.  The same
unit of work runs in process, in the entity fan-out pool, in the durable
orchestrator's shards and on cluster workers, so every path yields the same
floats.  With ``RuntimeOptions.workers`` set, the entity being refined owns a
private candidate-scan pool for the length of its trajectory, so at most
``workers`` scan processes are alive at any time.

The crowd may be modelled at three fidelities (``ExperimentConfig.crowd_model``):

* ``"uniform"`` — the paper's shared-``Pc`` :class:`CrowdModel`;
* ``"difficulty"`` — per-fact channels lowered by the platform's known task
  difficulties (:class:`DifficultyAdjustedCrowdModel`);
* ``"calibrated"`` — a per-entity qualification pre-test estimates the pool's
  accuracy (spending real platform answers, which are counted into the
  quality-vs-cost curve), optionally combined with the difficulty adjustment
  (:class:`CalibratedCrowdModel`).
"""

from __future__ import annotations

import multiprocessing
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.crowd import (
    CalibratedCrowdModel,
    ChannelModel,
    CrowdModel,
    DifficultyAdjustedCrowdModel,
)
from repro.core.distribution import JointDistribution
from repro.core.engine import refinement_rounds
from repro.core.facts import FactSet
from repro.core.runtime import RuntimeOptions
from repro.core.selection import TaskSelector, get_selector
from repro.core.selection.parallel import (
    ParallelPolicy,
    ParallelSelectorMixin,
    _supervised_map,
    _teardown_pool,
)
from repro.core.selection.session import RefinementSession
from repro.correlation.builder import JointDistributionBuilder
from repro.correlation.rules import CorrelationRule
from repro.crowdsim.platform import SimulatedPlatform
from repro.crowdsim.qualification import QualificationTest
from repro.crowdsim.worker import WorkerPool
from repro.evaluation.metrics import classification_scores
from repro.exceptions import CrowdFusionError, DatasetError
from repro.fusion.claims import ClaimDatabase
from repro.fusion.pipeline import FusionMethod, claims_to_facts, fusion_prior
from repro.testing import faults

#: The crowd-model fidelities :func:`run_quality_experiment` understands.
CROWD_MODEL_KINDS = ("uniform", "difficulty", "calibrated")


@dataclass
class EntityProblem:
    """One independent refinement problem (one book / one flight)."""

    entity: str
    facts: FactSet
    prior: JointDistribution
    gold: Dict[str, bool]
    difficulties: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [fact_id for fact_id in self.prior.fact_ids if fact_id not in self.gold]
        if missing:
            raise DatasetError(
                f"entity {self.entity!r} is missing gold labels for {missing}"
            )


#: Signature of an optional correlation-rule factory: given the entity id and
#: its fact ids, return the rules coupling them in the prior.
RuleFactory = Callable[[str, Sequence[str]], Sequence[CorrelationRule]]


def build_problems(
    database: ClaimDatabase,
    gold: Mapping[str, bool],
    fusion_method: FusionMethod,
    difficulties: Optional[Mapping[str, float]] = None,
    clip: float = 0.05,
    max_facts_per_entity: Optional[int] = 14,
    rule_factory: Optional[RuleFactory] = None,
    entities: Optional[Sequence[str]] = None,
) -> List[EntityProblem]:
    """Fuse a claim database and split it into per-entity refinement problems.

    Parameters
    ----------
    database, gold:
        The claim observations and gold labels (from a dataset generator).
    fusion_method:
        The machine-only initialiser (e.g. :class:`repro.fusion.ModifiedCRH`).
    difficulties:
        Optional per-claim crowd difficulty used by the simulated platform.
    clip:
        Marginal clipping applied to the fusion confidences.
    max_facts_per_entity:
        Entities with more claims keep only their most-supported claims; this
        bounds the joint-distribution size (``None`` disables the cap).
    rule_factory:
        Optional factory producing correlation rules per entity; when omitted
        the prior is the independent product of the fusion marginals.
    entities:
        Restrict the problems to these entities (default: all entities), one
        problem per entity in the given order.  Unknown or repeated ids raise
        :class:`DatasetError` before anything is fused.
    """
    if entities is None:
        wanted = list(database.entities())
    else:
        wanted = list(entities)
        counts = Counter(wanted)
        unknown = [entity for entity in counts if not database.claims_for(entity)]
        repeated = [entity for entity, count in counts.items() if count > 1]
        if unknown or repeated:
            raise DatasetError(
                f"build_problems(entities=...) names unknown entities {unknown} "
                f"and repeated entities {repeated}"
            )
    result = fusion_method.run(database)
    difficulty_map = dict(difficulties or {})
    problems: List[EntityProblem] = []

    for entity in wanted:
        claims = list(database.claims_for(entity))
        claims.sort(key=lambda claim: (-claim.support, claim.claim_id))
        if max_facts_per_entity is not None:
            claims = claims[:max_facts_per_entity]
        facts = claims_to_facts(claims, result)
        fact_ids = facts.fact_ids

        if rule_factory is not None:
            marginals = {
                fact_id: min(1.0 - clip, max(clip, result.confidence(fact_id)))
                for fact_id in fact_ids
            }
            rules = rule_factory(entity, fact_ids)
            prior = JointDistributionBuilder(marginals, rules).build()
        else:
            prior = fusion_prior(result, claims, clip=clip, fact_ids=fact_ids)

        entity_gold = {fact_id: bool(gold[fact_id]) for fact_id in fact_ids}
        entity_difficulties = {
            fact_id: difficulty_map.get(fact_id, 0.0) for fact_id in fact_ids
        }
        problems.append(
            EntityProblem(
                entity=entity,
                facts=facts,
                prior=prior,
                gold=entity_gold,
                difficulties=entity_difficulties,
            )
        )
    if not problems:
        raise DatasetError("no entity problems could be built from the database")
    return problems


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one quality experiment run.

    Attributes
    ----------
    selector:
        Canonical selector name or paper label (see the selection registry).
    k:
        Tasks per round per entity.
    budget_per_entity:
        Task budget ``B`` for every entity (the paper uses 60 per book).
    worker_accuracy:
        The *actual* accuracy of the simulated workers.
    assumed_accuracy:
        The ``Pc`` the system assumes for selection and merging; defaults to
        ``worker_accuracy`` (the paper's Figure 4 varies this).
    answers_per_task:
        Independent worker answers aggregated per task by the platform.
    use_difficulties:
        Whether the per-claim difficulties affect the simulated workers.
    seed:
        Base RNG seed; each entity derives its own stream from it.
    crowd_model:
        Channel-model fidelity assumed by selection and merging: ``"uniform"``
        (one shared ``Pc``), ``"difficulty"`` (per-fact channels adjusted by
        the known task difficulties, active when ``use_difficulties`` is on)
        or ``"calibrated"`` (per-entity qualification pre-test estimates the
        accuracy, plus the difficulty adjustment when active).
    calibration_facts:
        Size of the per-entity gold sample used by the ``"calibrated"``
        pre-test.
    calibration_repetitions:
        How many times each calibration sample task is asked.
    runtime:
        Typed :class:`~repro.core.runtime.RuntimeOptions` carrying every
        execution knob in one validated object (``None`` means the serial
        defaults):

        * ``recalibrate`` — every entity's session re-estimates per-fact
          channel accuracies from answer/posterior agreement as rounds
          accumulate, on top of whichever ``crowd_model`` fidelity it
          started from;
        * ``workers`` / ``parallel_threshold`` — candidate scans of the
          greedy family shard across a worker pool owned by the entity being
          refined (entities run one after another, so at most ``workers``
          processes are alive);
        * ``parallel_entities`` — whole entity trajectories fan out across a
          process pool of this size, with curve points identical to the
          in-process run's (mutually exclusive with ``workers``).

        The durable sweeps (:mod:`repro.orchestration`) run every entity
        serially inside their own worker processes and refuse both
        ``workers`` and ``parallel_entities``.
    """

    selector: str = "greedy_prune_pre"
    k: int = 3
    budget_per_entity: int = 60
    worker_accuracy: float = 0.8
    assumed_accuracy: Optional[float] = None
    answers_per_task: int = 1
    use_difficulties: bool = False
    seed: int = 0
    crowd_model: str = "uniform"
    calibration_facts: int = 5
    calibration_repetitions: int = 3
    runtime: Optional[RuntimeOptions] = None

    @property
    def model_accuracy(self) -> float:
        """The ``Pc`` used by selection and Bayesian merging."""
        return (
            self.assumed_accuracy
            if self.assumed_accuracy is not None
            else self.worker_accuracy
        )

    @property
    def runtime_options(self) -> RuntimeOptions:
        """The effective runtime configuration (the serial defaults if unset)."""
        return self.runtime if self.runtime is not None else RuntimeOptions()

    @property
    def parallel_policy(self) -> Optional[ParallelPolicy]:
        """The parallel-scan policy this configuration implies (or ``None``)."""
        return self.runtime_options.parallel_policy


@dataclass(frozen=True)
class QualityPoint:
    """One point of a quality-vs-cost curve."""

    cost: int
    utility: float
    f1: float
    precision: float
    recall: float
    accuracy: float


@dataclass
class ExperimentResult:
    """Quality curve produced by one experiment run."""

    config: ExperimentConfig
    points: List[QualityPoint] = field(default_factory=list)

    @property
    def initial_point(self) -> QualityPoint:
        """Quality before any crowdsourcing (cost 0)."""
        return self.points[0]

    @property
    def final_point(self) -> QualityPoint:
        """Quality after the whole budget has been spent."""
        return self.points[-1]

    def costs(self) -> List[int]:
        """Cumulative cost axis of the curve."""
        return [point.cost for point in self.points]

    def f1_series(self) -> List[float]:
        """F1 values aligned with :meth:`costs`."""
        return [point.f1 for point in self.points]

    def utility_series(self) -> List[float]:
        """Summed-utility values aligned with :meth:`costs`."""
        return [point.utility for point in self.points]


def _build_channel(
    config: ExperimentConfig, problem: EntityProblem, platform: SimulatedPlatform
) -> ChannelModel:
    """Construct the channel model the system assumes for one entity.

    The ``"calibrated"`` fidelity spends real (seeded) platform answers on a
    qualification pre-test before the refinement starts, exactly as a real
    deployment would, so its estimate varies with the worker RNG stream.
    """
    base = config.model_accuracy
    difficulties = problem.difficulties if config.use_difficulties else {}
    if config.crowd_model == "uniform":
        return CrowdModel(base)
    if config.crowd_model == "difficulty":
        return DifficultyAdjustedCrowdModel(base, difficulties)
    if config.crowd_model == "calibrated":
        sample_ids = sorted(problem.gold)[: max(1, config.calibration_facts)]
        sample = {fact_id: problem.gold[fact_id] for fact_id in sample_ids}
        estimate = QualificationTest(
            sample, repetitions=config.calibration_repetitions
        ).run(platform)
        # The pre-test measures the *effective* accuracy on its sample tasks,
        # difficulties included; add the sample's mean difficulty back to
        # recover the base accuracy before re-applying per-fact difficulties
        # (otherwise hard statements would be discounted twice).
        mean_difficulty = sum(
            difficulties.get(fact_id, 0.0) for fact_id in sample_ids
        ) / len(sample_ids)
        calibrated = min(1.0, max(0.5, estimate.estimated_accuracy + mean_difficulty))
        overrides = {
            fact_id: max(0.5, calibrated - difficulty)
            for fact_id, difficulty in difficulties.items()
            if difficulty > 0.0
        }
        return CalibratedCrowdModel(calibrated, overrides)
    raise CrowdFusionError(
        f"unknown crowd model {config.crowd_model!r}; "
        f"expected one of {CROWD_MODEL_KINDS}"
    )


def _prepare_entity(
    problem: EntityProblem,
    index: int,
    config: ExperimentConfig,
    budget_overrides: Mapping[str, int],
) -> "Tuple[SimulatedPlatform, ChannelModel, TaskSelector, int]":
    """Platform, channel, selector and budget for one entity.

    Every random stream derives from ``config.seed`` and the entity's global
    ``index``, so an entity's whole trajectory is identical no matter which
    process runs it.
    """
    workers = WorkerPool.homogeneous(
        size=25, accuracy=config.worker_accuracy, seed=config.seed * 7919 + index
    )
    platform = SimulatedPlatform(
        ground_truth=problem.gold,
        workers=workers,
        difficulties=problem.difficulties if config.use_difficulties else None,
        answers_per_task=config.answers_per_task,
    )
    channel = _build_channel(config, problem, platform)
    selector = get_selector(
        config.selector,
        **(
            {"seed": config.seed * 104729 + index}
            if config.selector in ("random", "Random")
            else {}
        ),
    )
    budget = budget_overrides.get(problem.entity, config.budget_per_entity)
    return platform, channel, selector, budget


def run_quality_experiment(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budgets: Optional[Mapping[str, int]] = None,
) -> ExperimentResult:
    """Run the budgeted refinement over all entities and record the quality curve.

    Every entity runs its complete trajectory (:func:`run_entity_trajectory`)
    — in process, or across a fork pool of ``parallel_entities`` workers —
    and :func:`assemble_curve` records a point after each global pass,
    matching how the paper accumulates cost over the whole book collection.

    ``budgets`` optionally overrides the per-entity budget (keyed by entity
    id); entities not listed fall back to ``config.budget_per_entity``.  This
    is how the budget-allocation extension (``repro.evaluation.allocation``)
    plugs in.
    """
    if not problems:
        raise CrowdFusionError("cannot run an experiment without entity problems")
    problems = list(problems)
    budget_overrides = dict(budgets or {})
    runtime = config.runtime_options
    if runtime.workers is not None and not isinstance(
        get_selector(config.selector), ParallelSelectorMixin
    ):
        warnings.warn(
            f"selector {config.selector!r} does not support parallel "
            "candidate scans; the workers/parallel_threshold settings are "
            "ignored",
            RuntimeWarning,
            stacklevel=2,
        )

    if runtime.parallel_entities is None:
        trajectories = [
            run_entity_trajectory(problem, index, config, budget_overrides)
            for index, problem in enumerate(problems)
        ]
    else:
        trajectories = _fan_out(problems, config, budget_overrides)

    gold: Dict[str, bool] = {}
    for problem in problems:
        gold.update(problem.gold)
    return ExperimentResult(config=config, points=assemble_curve(trajectories, gold))


# -- entity trajectories ----------------------------------------------------------


@dataclass
class TrajectoryRound:
    """One entity round as recorded by :func:`run_entity_trajectory`."""

    tasks_asked: int
    utility: float
    labels: Dict[str, bool]


@dataclass
class EntityTrajectory:
    """Everything needed to splice one entity into the global curve.

    Produced by :func:`run_entity_trajectory`; consumed by
    :func:`assemble_curve`.  The fields are plain ints, floats and
    string-keyed bool dicts on purpose — they serialise to JSON and back
    without loss, which is what lets the durable orchestrator
    (:mod:`repro.orchestration`) journal trajectories to disk and still
    reassemble bit-identical curves on resume.
    """

    initial_cost: int
    initial_utility: float
    initial_labels: Dict[str, bool]
    rounds: List[TrajectoryRound]


def run_entity_trajectory(
    problem: EntityProblem,
    index: int,
    config: ExperimentConfig,
    budget_overrides: Optional[Mapping[str, int]] = None,
) -> EntityTrajectory:
    """Run entity ``index``'s complete refinement trajectory.

    This is the unit of work of every experiment path: in process, the
    entity fan-out pool, the checkpointed orchestrator's shards and the
    cluster workers.  All randomness derives from ``config.seed`` and the
    entity's global ``index`` (:func:`_prepare_entity`), so the records are
    bit-for-bit the same no matter which process, or which *run*, computes
    them; :func:`assemble_curve` splices them into the pass-aligned curve.
    The session gets ``config.runtime_options`` as they are: with
    ``workers`` set it owns a private scan pool, closed when the trajectory
    ends — also when a selector raises.
    """
    platform, channel, selector, budget = _prepare_entity(
        problem, index, config, dict(budget_overrides or {})
    )
    with RefinementSession(
        problem.prior, channel, runtime=config.runtime_options
    ) as session:
        trajectory = EntityTrajectory(
            # Only calibration pre-tests have spent platform answers so far;
            # booking them into the cost-0 point keeps the curves of the
            # three crowd-model fidelities comparable.
            initial_cost=platform.stats().answers_collected,
            initial_utility=session.utility(),
            initial_labels=session.predicted_labels(),
            rounds=[],
        )
        for selection, _answers in refinement_rounds(
            session, selector, platform.collect, budget, config.k
        ):
            trajectory.rounds.append(
                TrajectoryRound(
                    tasks_asked=len(selection.task_ids),
                    utility=session.utility(),
                    labels=session.predicted_labels(),
                )
            )
    return trajectory


def assemble_curve(
    trajectories: Sequence[EntityTrajectory], gold: Mapping[str, bool]
) -> List[QualityPoint]:
    """Build the pass-aligned quality curve from per-entity trajectories.

    Pass ``r`` is every entity's ``r``-th round, as if the entities had
    refined in lock-step.  The point after pass ``r`` aggregates every
    entity's state after its ``min(r, rounds)``-th round, summing utilities
    and pooling labels in entity order, and its cost adds every round run so
    far (calibration spend included).  Every experiment path builds its
    curve here — in process, fanned out, orchestrated (resumed or not) and
    clustered — which is what makes "resumed run ≡ undisturbed run ≡
    in-process run" a property of this one function.
    """

    def point(round_index: int, cost: int) -> QualityPoint:
        utilities: List[float] = []
        labels: Dict[str, bool] = {}
        for trajectory in trajectories:
            reached = min(round_index, len(trajectory.rounds))
            if reached == 0:
                utilities.append(trajectory.initial_utility)
                labels.update(trajectory.initial_labels)
            else:
                record = trajectory.rounds[reached - 1]
                utilities.append(record.utility)
                labels.update(record.labels)
        scores = classification_scores(labels, gold)
        return QualityPoint(
            cost=cost,
            utility=float(sum(utilities)),
            f1=scores.f1,
            precision=scores.precision,
            recall=scores.recall,
            accuracy=scores.accuracy,
        )

    points: List[QualityPoint] = []
    total_cost = sum(trajectory.initial_cost for trajectory in trajectories)
    points.append(point(0, total_cost))
    max_rounds = max((len(t.rounds) for t in trajectories), default=0)
    for round_index in range(1, max_rounds + 1):
        total_cost += sum(
            trajectory.rounds[round_index - 1].tasks_asked
            for trajectory in trajectories
            if len(trajectory.rounds) >= round_index
        )
        points.append(point(round_index, total_cost))
    return points


# -- cross-entity fan-out ---------------------------------------------------------

#: Fan-out work published to the fork pool: ``(problems, config, overrides)``.
#: Set immediately before the pool forks and cleared right after — workers
#: inherit the tuple through copy-on-write memory, nothing is pickled out.
_FANOUT_CONTEXT: Optional[Tuple[List[EntityProblem], ExperimentConfig, Dict[str, int]]] = None


def _entity_trajectory(index: int) -> EntityTrajectory:
    """Fan-out worker: run entity ``index``'s complete refinement trajectory.

    A thin shim over :func:`run_entity_trajectory` reading the work tuple
    from the fork-inherited module global.  Like orchestrator shards and
    cluster workers, it fires the ``shard_entity`` fault point first.
    """
    problems, config, budget_overrides = _FANOUT_CONTEXT
    faults.fire("shard_entity", index=index)
    return run_entity_trajectory(problems[index], index, config, budget_overrides)


def _fan_out(
    problems: List[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Dict[str, int],
) -> List[EntityTrajectory]:
    """Every entity's trajectory, computed across a fork pool.

    Workers inherit the problem list through the fork (nothing is shipped
    out) and send back only the trajectories, in entity order.  The map is
    supervised like the scan pool's, so a worker that dies mid-sweep raises
    :class:`~repro.core.selection.parallel.WorkerCrashError` instead of
    hanging the call.
    """
    global _FANOUT_CONTEXT
    context = multiprocessing.get_context("fork")
    processes = min(config.runtime_options.parallel_entities, len(problems))
    _FANOUT_CONTEXT = (problems, config, budget_overrides)
    try:
        worker_pool = context.Pool(processes=processes)
        procs = tuple(worker_pool._pool)  # the fork-time worker snapshot
        try:
            return _supervised_map(
                worker_pool,
                procs,
                _entity_trajectory,
                range(len(problems)),
                ParallelPolicy(),
                chunksize=1,
            )
        finally:
            _teardown_pool(worker_pool, procs)
    finally:
        _FANOUT_CONTEXT = None
