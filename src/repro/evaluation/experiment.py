"""End-to-end quality experiments (Figures 2, 3 and 4 of the paper).

The experiment runner mirrors the paper's setup: every entity (book) gets its
own fact set, prior distribution (from a machine-only fusion method), a task
budget ``B`` and a per-round task count ``k``; rounds are executed for all
entities in lock-step and after every global pass the summed utility and the
F1-score of the thresholded labels are recorded, producing the
quality-vs-cost curves of the figures.

The lock-step loop runs on a batched
:class:`~repro.core.selection.session.SessionPool`: one persistent
:class:`~repro.core.selection.session.RefinementSession` per entity, built
before the first pass and reweighted in place after every merge, so all
entities' candidate sets are scored against shared cached state (warm bit
columns and partitions) in every global pass instead of rebuilding one
selection engine per entity per pass.  Curve points come straight from the
sessions' cached arrays — no per-pass distribution materialisation at all.
With ``RuntimeOptions.workers`` set, every entity's session attaches to one
shared :class:`~repro.core.selection.parallel.EvaluatorPool`, so the whole
experiment keeps at most ``workers`` scan processes alive and forks them
once.

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

import contextlib
import multiprocessing
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.crowd import (
    CalibratedCrowdModel,
    ChannelModel,
    CrowdModel,
    DifficultyAdjustedCrowdModel,
)
from repro.core.distribution import JointDistribution
from repro.core.facts import FactSet
from repro.core.runtime import RuntimeOptions
from repro.core.selection import TaskSelector, get_selector
from repro.core.selection.parallel import (
    EvaluatorPool,
    ParallelPolicy,
    ParallelSelectorMixin,
)
from repro.core.selection.session import RefinementSession, SessionPool
from repro.correlation.builder import JointDistributionBuilder
from repro.correlation.rules import CorrelationRule
from repro.crowdsim.platform import SimulatedPlatform
from repro.crowdsim.qualification import QualificationTest
from repro.crowdsim.worker import WorkerPool
from repro.evaluation.metrics import classification_scores
from repro.exceptions import CrowdFusionError, DatasetError
from repro.fusion.claims import ClaimDatabase
from repro.fusion.pipeline import FusionMethod, claims_to_facts, fusion_prior

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
        Restrict the problems to these entities (default: all entities).
    """
    result = fusion_method.run(database)
    difficulty_map = dict(difficulties or {})
    wanted = list(entities) if entities is not None else list(database.entities())
    problems: List[EntityProblem] = []

    for entity in wanted:
        claims = list(database.claims_for(entity))
        if not claims:
            continue
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
          greedy family shard across one worker pool shared by every entity
          (at most ``workers`` processes alive for the whole run);
        * ``parallel_entities`` — whole entity trajectories fan out across a
          process pool of this size, and the lock-step curve is reassembled
          with points identical to the serial loop's (mutually exclusive
          with ``workers``).
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


@dataclass
class _EntityState:
    """Mutable per-entity state while an experiment is running."""

    problem: EntityProblem
    session: RefinementSession
    platform: SimulatedPlatform
    selector: TaskSelector
    remaining_budget: int


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

    Shared by the serial lock-step loop and the entity fan-out workers: both
    derive every random stream from ``config.seed`` and the entity's global
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


def _measure(
    pool: SessionPool, states: Sequence[_EntityState], cost: int
) -> QualityPoint:
    """Compute one curve point straight from the session pool's cached arrays."""
    gold: Dict[str, bool] = {}
    for state in states:
        gold.update(state.problem.gold)
    scores = classification_scores(pool.predicted_labels(), gold)
    return QualityPoint(
        cost=cost,
        utility=pool.total_utility(),
        f1=scores.f1,
        precision=scores.precision,
        recall=scores.recall,
        accuracy=scores.accuracy,
    )


def run_quality_experiment(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budgets: Optional[Mapping[str, int]] = None,
) -> ExperimentResult:
    """Run the budgeted refinement over all entities and record the quality curve.

    Rounds are interleaved across entities (every entity runs its ``r``-th
    round before any entity runs round ``r + 1``), and a curve point is
    recorded after each global pass — matching how the paper accumulates cost
    over the whole book collection.  All entities refine through one
    :class:`SessionPool`, so each global pass scores candidate sets against
    the cached per-entity engines instead of rebuilding them.  With
    ``workers`` configured, all sessions attach to one shared
    :class:`EvaluatorPool`, created for this call and closed before it
    returns.

    ``budgets`` optionally overrides the per-entity budget (keyed by entity
    id); entities not listed fall back to ``config.budget_per_entity``.  This
    is how the budget-allocation extension (``repro.evaluation.allocation``)
    plugs in.
    """
    if not problems:
        raise CrowdFusionError("cannot run an experiment without entity problems")
    budget_overrides = dict(budgets or {})
    runtime = config.runtime_options

    if runtime.parallel_entities is not None:
        return _run_fanned_out(list(problems), config, budget_overrides)

    policy = runtime.parallel_policy
    shared = EvaluatorPool(policy) if policy is not None else None
    pool = SessionPool()
    states: List[_EntityState] = []
    for index, problem in enumerate(problems):
        platform, channel, selector, budget = _prepare_entity(
            problem, index, config, budget_overrides
        )
        if (
            shared is not None
            and index == 0
            and not isinstance(selector, ParallelSelectorMixin)
        ):
            warnings.warn(
                f"selector {config.selector!r} does not support parallel "
                "candidate scans; the workers/parallel_threshold settings are "
                "ignored",
                RuntimeWarning,
                stacklevel=2,
            )
        states.append(
            _EntityState(
                problem=problem,
                session=pool.add(
                    problem.entity, problem.prior, channel, runtime=runtime,
                    evaluator_pool=shared,
                ),
                platform=platform,
                selector=selector,
                remaining_budget=budget,
            )
        )

    result = ExperimentResult(config=config)
    # Calibration pre-tests spend real platform answers before the first
    # refinement round; put that spend on the books so the quality-vs-cost
    # curves of the three crowd-model fidelities are comparable.
    total_cost = sum(state.platform.stats().answers_collected for state in states)
    result.points.append(_measure(pool, states, total_cost))

    # Leaving the contexts detaches every session and terminates the shared
    # pool's workers — including when a selector raises mid-pass.
    with shared if shared is not None else contextlib.nullcontext(), pool:
        # Attach every engine before the first scan, so the shared pool forks
        # once with all of them instead of re-forking as each entity joins.
        for state in states:
            state.session.shared_evaluator()
        while any(state.remaining_budget > 0 for state in states):
            progressed = False
            for state in states:
                if state.remaining_budget <= 0:
                    continue
                k = min(config.k, state.remaining_budget, state.session.num_facts)
                selection = state.selector.select_with_session(state.session, k)
                if not selection.task_ids:
                    state.remaining_budget = 0
                    state.session.close()
                    continue
                answers = state.platform.collect(selection.task_ids)
                state.session.merge(answers)
                state.remaining_budget -= len(selection.task_ids)
                total_cost += len(selection.task_ids)
                progressed = True
                if state.remaining_budget <= 0:
                    # This entity will never scan again: detach it now (the
                    # shared pool's workers exit once the last entity has).
                    state.session.close()
            if not progressed:
                break
            result.points.append(_measure(pool, states, total_cost))

    return result


# -- cross-entity fan-out ---------------------------------------------------------


@dataclass
class TrajectoryRound:
    """One entity round as recorded by a trajectory worker."""

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
    """Run entity ``index``'s complete refinement trajectory, serially.

    Entities are independent for the whole run (the lock-step interleaving
    only matters for when curve points are *recorded*), so one entity's
    rounds can run back to back in any process; the caller reassembles
    pass-aligned curve points from the per-round records with
    :func:`assemble_curve`.  All randomness derives from ``config.seed`` and
    the entity's global ``index`` exactly as in the serial loop
    (:func:`_prepare_entity`), so the records are bit-for-bit what the serial
    loop would have produced — no matter which process, or which *run*, they
    are computed in.  This is the unit of work shared by the in-memory
    fan-out pool and the checkpointed orchestrator shards.
    """
    platform, channel, selector, budget = _prepare_entity(
        problem, index, config, dict(budget_overrides or {})
    )
    session = RefinementSession(
        problem.prior,
        channel,
        runtime=RuntimeOptions(
            recalibrate=config.runtime_options.recalibrate,
            kernel=config.runtime_options.kernel,
        ),
    )
    trajectory = EntityTrajectory(
        # Only calibration pre-tests have spent platform answers at this
        # point — the same spend the serial loop books into the cost-0 point.
        initial_cost=platform.stats().answers_collected,
        initial_utility=session.utility(),
        initial_labels=session.predicted_labels(),
        rounds=[],
    )
    remaining = budget
    while remaining > 0:
        k = min(config.k, remaining, session.num_facts)
        selection = selector.select_with_session(session, k)
        if not selection.task_ids:
            break
        answers = platform.collect(selection.task_ids)
        session.merge(answers)
        remaining -= len(selection.task_ids)
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
    """Reassemble the global lock-step curve from per-entity trajectories.

    The point after pass ``r`` aggregates every entity's state after its
    ``min(r, rounds)``-th round, summing utilities and pooling labels in
    entity order — the identical floats, in the identical order, the serial
    loop produces.  Shared by the in-memory fan-out and the orchestrator's
    resume path, which is what makes "resumed run ≡ undisturbed run" a
    property of this one function rather than of two reimplementations.
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


#: Fan-out work published to the fork pool: ``(problems, config, overrides)``.
#: Set immediately before the pool forks and cleared right after — workers
#: inherit the tuple through copy-on-write memory, nothing is pickled out.
_FANOUT_CONTEXT: Optional[Tuple[List[EntityProblem], ExperimentConfig, Dict[str, int]]] = None


def _entity_trajectory(index: int) -> EntityTrajectory:
    """Fan-out worker: run entity ``index``'s complete refinement trajectory.

    A thin shim over :func:`run_entity_trajectory` reading the work tuple
    from the fork-inherited module global.
    """
    problems, config, budget_overrides = _FANOUT_CONTEXT
    return run_entity_trajectory(problems[index], index, config, budget_overrides)


def _run_fanned_out(
    problems: List[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Dict[str, int],
) -> ExperimentResult:
    """The lock-step experiment with whole entities fanned out across a pool.

    Workers inherit the problem list through a fork (nothing is shipped out),
    each runs its entities' full trajectories, and the parent reassembles the
    global pass curve: the point after pass ``r`` aggregates every entity's
    state after its ``min(r, rounds)``-th round, summing utilities and
    pooling labels in entity order — the identical floats, in the identical
    order, the serial loop produces.
    """
    global _FANOUT_CONTEXT
    context = multiprocessing.get_context("fork")
    processes = min(config.runtime_options.parallel_entities, len(problems))
    _FANOUT_CONTEXT = (problems, config, budget_overrides)
    try:
        with context.Pool(processes=processes) as worker_pool:
            trajectories = worker_pool.map(
                _entity_trajectory, range(len(problems)), chunksize=1
            )
    finally:
        _FANOUT_CONTEXT = None

    gold: Dict[str, bool] = {}
    for problem in problems:
        gold.update(problem.gold)

    result = ExperimentResult(config=config)
    result.points.extend(assemble_curve(trajectories, gold))
    return result
