"""Persistent refinement sessions: one engine amortised over many rounds.

A multi-round CrowdFusion run repeats select → collect → merge on the *same*
output support: Bayesian merging only reweights the probability of each
support row, it never adds or removes rows.  Rebuilding a fresh
:class:`~repro.core.selection.engine.EntropyEngine` every round therefore
throws away every structural cache — the contiguous support arrays, the
per-fact 0/1 bit columns, the facts-of-interest cells — and, on the fresh
path, also round-trips the posterior through a Python dict twice per round
(once to build the merged :class:`JointDistribution`, once to re-extract its
arrays).

A :class:`RefinementSession` owns one engine for the lifetime of a run:

* :meth:`RefinementSession.select` hands the live engine to any session-aware
  selector (all greedy variants), so every round's scan starts from warm
  caches;
* :meth:`RefinementSession.merge` applies a round's answers as a pure array
  reweight, in place on the engine's probability vector — no dict
  materialisation at all;
* marginals, entropy/utility and predicted labels are computed directly from
  the cached arrays, and a full :class:`JointDistribution` posterior is only
  materialised on demand (:attr:`RefinementSession.distribution`).

A :class:`SessionPool` keys sessions under one lifecycle — the refinement
service's session registry keeps its tenants in one — and reads aggregate
quality (summed utility, pooled labels) straight from their cached arrays.

Two extensions ride on the same cached arrays:

* **Batched multi-query scoring** — :meth:`RefinementSession.select_queries`
  scores many queries' task sets against one entity off a *single* shared set
  of cached per-fact bit columns: each query gets an interest *view* of the
  session engine (:meth:`EntropyEngine.interest_view` — own interest cells,
  shared everything else) instead of one full engine per query.
* **Adaptive channel re-calibration** — with
  ``RuntimeOptions(recalibrate=True)`` the session re-estimates per-fact
  channel accuracies from answer/posterior agreement as rounds accumulate and
  swaps the updated :class:`~repro.core.crowd.RecalibratedChannelModel` into
  both selection and merging, keeping every structural cache warm.

The session is also the owner of the **parallel candidate scan**: built with
a :class:`~repro.core.selection.parallel.ParallelPolicy`, it creates a
private :class:`~repro.core.selection.parallel.EvaluatorPool`, attaches its
engine, and hands every session-aware selector the resulting
:class:`~repro.core.selection.parallel.PooledEvaluator`, whose fork-shared
worker pool survives the run's merges (each round's reweighted posterior is
shipped through a shared-memory snapshot ring instead of re-forking).  Given
a shared ``evaluator_pool`` instead, the session attaches to that pool.  The
workers fork on the first scan that clears the policy threshold and are
released by :meth:`RefinementSession.close` — sessions (and
:class:`SessionPool`) are context managers, so worker processes are reclaimed
even when a selector raises mid-scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel, RecalibratedChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import entropy_bits
from repro.core.merging import _ColumnLikelihoods
from repro.core.query import Query
from repro.core.selection.base import SelectionResult, TaskSelector
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.parallel import EvaluatorPool, ParallelPolicy, PooledEvaluator
from repro.exceptions import SelectionError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.runtime import RuntimeOptions

class RefinementSession:
    """Cached selection/merging state for one multi-round refinement run.

    Parameters
    ----------
    distribution:
        The prior joint output distribution.  Its support — and therefore
        every structural cache — is fixed for the session's lifetime.
    channel:
        The :class:`~repro.core.crowd.ChannelModel` used both to score
        candidate task sets and to merge the received answers, so what
        selection expects is exactly what merging applies.
    interest_ids:
        Optional facts of interest; when given, the session's engine also
        tracks ``H(I, T)`` and session-aware query selectors reuse it.
    recalibration_smoothing:
        Pseudo-observation weight anchoring each re-estimate of adaptive
        channel re-calibration (``RuntimeOptions.recalibrate``) to the base
        channel's accuracy, so one or two rounds of answers cannot swing a
        channel to an extreme.
    parallel:
        Optional :class:`~repro.core.selection.parallel.ParallelPolicy`.
        When given, the session owns a private
        :class:`~repro.core.selection.parallel.EvaluatorPool` for its engine:
        session-aware selectors of the greedy family shard their candidate
        scans over one long-lived fork pool that survives every
        :meth:`merge` (posteriors travel through a shared-memory snapshot
        ring).  Release the pool with :meth:`close` or by using the session
        as a context manager.
    runtime:
        Optional :class:`~repro.core.runtime.RuntimeOptions`; supplies
        ``recalibrate`` (each merge re-estimates the channel accuracy of
        every answered fact from the posterior's agreement with the received
        answers and swaps the updated channel into selection and merging)
        and — when ``parallel`` is not given and no shared
        ``evaluator_pool`` is — the private pool's policy
        (``RuntimeOptions.workers``).
    evaluator_pool:
        Optional shared :class:`~repro.core.selection.parallel.EvaluatorPool`
        to attach this session's engine to, instead of the session owning a
        private pool.  The session attaches lazily on the first scan and
        detaches on :meth:`close` — this is how a multi-tenant server runs
        all of its sessions on a small, fixed set of worker processes.  The
        pool carries its own policy, so it may not be combined with
        ``parallel``.
    """

    def __init__(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        interest_ids: Optional[Sequence[str]] = None,
        recalibration_smoothing: float = 4.0,
        parallel: Optional[ParallelPolicy] = None,
        runtime: "Optional[RuntimeOptions]" = None,
        evaluator_pool: Optional[EvaluatorPool] = None,
    ):
        if recalibration_smoothing <= 0.0:
            raise SelectionError(
                f"recalibration smoothing must be positive, got {recalibration_smoothing}"
            )
        if evaluator_pool is not None and parallel is not None:
            raise SelectionError(
                "RefinementSession cannot combine a parallel policy with a "
                "shared evaluator_pool; the pool already carries its own policy"
            )
        recalibrate = False
        if runtime is not None:
            recalibrate = runtime.recalibrate
            if parallel is None and evaluator_pool is None:
                parallel = runtime.parallel_policy
        self._initial = distribution
        self._base_channel = channel
        self._channel = channel
        self._interest_ids = tuple(interest_ids) if interest_ids else ()
        self._engine = EntropyEngine(distribution, channel, interest_ids=interest_ids)
        self._materialized: Optional[JointDistribution] = distribution
        self._rounds_merged = 0
        self._views: Dict[Tuple[str, ...], EntropyEngine] = {}
        self._recalibrate = recalibrate
        self._smoothing = recalibration_smoothing
        self._agreement_mass: Dict[str, float] = {}
        self._agreement_count: Dict[str, int] = {}
        self._parallel_policy = parallel
        self._evaluator_pool = evaluator_pool
        self._private_pool: Optional[EvaluatorPool] = None
        self._evaluator: Optional[PooledEvaluator] = None

    # -- parallel candidate scan -------------------------------------------------------

    @property
    def parallel_policy(self) -> Optional[ParallelPolicy]:
        """The policy the session's scans are sharded under (``None`` = serial).

        For a session attached to a shared
        :class:`~repro.core.selection.parallel.EvaluatorPool` this is the
        pool's policy — every engine of one pool is scored under the same
        sharding rules.
        """
        if self._evaluator_pool is not None:
            return self._evaluator_pool.policy
        return self._parallel_policy

    def shared_evaluator(self) -> Optional[PooledEvaluator]:
        """The session's pool evaluator, or ``None`` without a policy.

        Created lazily on first request — attaching the engine to the shared
        ``evaluator_pool``, or to a private pool built from the session's
        policy.  The workers fork lazily on the first candidate scan that
        clears the policy threshold, so merely configuring a policy costs
        nothing until parallelism actually pays.  The evaluator stays valid
        across merges and channel swaps — it ships the engine's current
        generation to the workers on every dispatch — and lives until
        :meth:`close`.
        """
        if self._evaluator is None:
            pool = self._evaluator_pool
            if pool is None and self._parallel_policy is not None:
                pool = self._private_pool = EvaluatorPool(self._parallel_policy)
            if pool is not None:
                self._evaluator = pool.attach(self._engine)
        return self._evaluator

    def close(self) -> None:
        """Release the session's worker pool slot (idempotent).

        Detaches the engine (unlinking its shared-memory snapshot ring) and
        closes a private pool, terminating its workers.  The session itself
        stays usable — a later parallel scan simply re-acquires a pool.
        """
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None
        if self._private_pool is not None:
            self._private_pool.close()
            self._private_pool = None

    def __enter__(self) -> "RefinementSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- structure -------------------------------------------------------------------

    @property
    def engine(self) -> EntropyEngine:
        """The live engine; selectors score candidates against it directly."""
        return self._engine

    @property
    def channel(self) -> ChannelModel:
        """The channel model shared by selection and merging.

        With re-calibration enabled this is the *current* overlay; the model
        the session was constructed with stays available as the overlay's
        base.
        """
        return self._channel

    @property
    def recalibrates(self) -> bool:
        """Whether this session re-estimates channel accuracies as it merges."""
        return self._recalibrate

    def engine_for_interest(self, interest_ids: Sequence[str]) -> EntropyEngine:
        """The engine to score one query's candidates on.

        The session's own engine when it was built for exactly this interest
        set; otherwise a cached :meth:`EntropyEngine.interest_view` — shared
        support arrays and bit columns, per-query interest cells.  A view
        shares the engine's probability vector, which a merge writes in
        place, so views are rebuilt after each merge and a view kept across
        one raises :class:`~repro.exceptions.SelectionError` when used.
        """
        key = tuple(interest_ids)
        if key == self._interest_ids:
            return self._engine
        view = self._views.get(key)
        if view is None:
            view = self._engine.interest_view(key)
            self._views[key] = view
        return view

    @property
    def interest_ids(self) -> "tuple[str, ...]":
        """Facts of interest the session was built with (empty if none)."""
        return self._interest_ids

    @property
    def fact_ids(self) -> "tuple[str, ...]":
        """Ordered fact ids of the underlying distribution."""
        return self._initial.fact_ids

    @property
    def num_facts(self) -> int:
        return self._initial.num_facts

    @property
    def rounds_merged(self) -> int:
        """Number of answer sets merged into this session so far."""
        return self._rounds_merged

    # -- current posterior -----------------------------------------------------------

    @property
    def distribution(self) -> JointDistribution:
        """The current posterior, materialised on demand and cached until the
        next merge.  Support rows whose mass reached exactly zero are dropped
        from the materialised object (matching :func:`merge_answers`), while
        the session itself keeps them for row alignment.  The masses are
        the engine's, copied and not renormalised, so they equal
        ``engine.probabilities`` bit for bit."""
        if self._materialized is None:
            self._materialized = JointDistribution._from_arrays(
                self._initial.fact_ids,
                self._engine.support_masks,
                self._engine.probabilities,
                normalise=False,
            )
        return self._materialized

    def entropy(self) -> float:
        """Shannon entropy ``H(F)`` of the current posterior, from the arrays."""
        return entropy_bits(self._engine.probabilities)

    def utility(self) -> float:
        """PWS-quality ``Q(F) = −H(F)`` of the current posterior."""
        return -self.entropy()

    def marginal(self, fact_id: str) -> float:
        """Marginal truth probability of one fact (a cached-column dot product)."""
        return float(self._engine.weighted_bits(fact_id).sum())

    def marginals(self) -> Dict[str, float]:
        """Per-fact marginal truth probabilities of the current posterior."""
        return {fact_id: self.marginal(fact_id) for fact_id in self.fact_ids}

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Threshold the marginals into boolean labels (strictly greater wins)."""
        return {
            fact_id: probability > threshold
            for fact_id, probability in self.marginals().items()
        }

    # -- the select / merge cycle ----------------------------------------------------

    def select(
        self, selector: TaskSelector, k: int, exclude: Sequence[str] = ()
    ) -> SelectionResult:
        """Select up to ``k`` tasks against the session's cached state."""
        return selector.select_with_session(self, k, exclude=exclude)

    def select_queries(
        self,
        queries: Sequence[Query],
        k: int,
        exclude: Sequence[str] = (),
    ) -> List[SelectionResult]:
        """Batched multi-query selection: one task set per query, shared caches.

        Every query is scored through the session (so interest views share
        this entity's cached per-fact bit columns and probability snapshot)
        rather than through one fresh engine per query.  Results are aligned
        with ``queries`` and identical to running each query's
        :class:`~repro.core.selection.query_greedy.QueryGreedySelector`
        against the materialised posterior on its own engine.
        """
        # Imported here: query_greedy imports the selection base modules this
        # module also feeds, and the registry wires both — a lazy import keeps
        # the package import order immaterial.
        from repro.core.selection.query_greedy import QueryGreedySelector

        return [
            QueryGreedySelector(query).select_with_session(self, k, exclude=exclude)
            for query in queries
        ]

    def merge(self, answers: AnswerSet) -> None:
        """Fold one round's answers into the posterior (Equation 3).

        A pure array update: the likelihoods are computed from the engine's
        cached bit columns of the answered facts and multiplied into the
        engine's probability vector in place, block by block
        (:meth:`EntropyEngine._reweight_blocks`), so a merge allocates no
        support-sized array after the first.  Every answered column is
        fetched before anything is written.  Invalidates the materialised
        posterior and drops every interest view (a view shares the vector the
        merge writes, and refuses use once its engine has merged).  When
        re-calibration is on, each answer's agreement with the *pre-merge*
        posterior is read before the reweight — prequential scoring: the
        answer is judged by the belief state that existed before it was
        folded in, so it can never endorse itself — and counted, with the
        per-fact accuracy estimates refreshed, only once the reweight
        succeeded.  A merge that raises (an unknown fact, evidence that
        removes all mass) leaves the session as it was.
        """
        likelihoods = _ColumnLikelihoods(answers, self._channel, self._engine.bits)
        agreements = self._agreements(answers) if self._recalibrate else None
        self._engine._reweight_blocks(likelihoods.smallest, likelihoods.fill)
        self._materialized = None
        self._views.clear()
        self._rounds_merged += 1
        if agreements is not None:
            self._apply_recalibration(agreements)

    def restore_rounds_merged(self, rounds: int) -> None:
        """Declare that ``rounds`` merges happened before this session object.

        Used when a session is rebuilt from a durable snapshot: the snapshot
        stores the *posterior* (which becomes this session's prior), so the
        arrays already reflect those merges — only the counter needs to catch
        up for ``rounds_merged`` reporting to survive a restore.  Refuses to
        run once this object has merged anything itself, and refuses to move
        the counter backwards.
        """
        if self._rounds_merged > rounds:
            raise SelectionError(
                f"cannot restore rounds_merged to {rounds}: this session has "
                f"already merged {self._rounds_merged} rounds"
            )
        if rounds < 0:
            raise SelectionError(f"rounds_merged cannot be negative: {rounds}")
        self._rounds_merged = rounds

    # -- adaptive channel re-calibration ----------------------------------------------

    def _agreements(self, answers: AnswerSet) -> Dict[str, float]:
        """How strongly the current posterior predicts each answer.

        Read *before* the answers are merged: the probability the pre-merge
        posterior assigns to the answered value is a soft agreement count.
        Answers the accumulated evidence keeps predicting push the fact's
        channel estimate up, answers it keeps contradicting push the estimate
        toward the coin-flip floor — and an answer about a fact the posterior
        is agnostic on (marginal 0.5) contributes no signal either way.
        """
        agreements: Dict[str, float] = {}
        for fact_id in answers:
            marginal = self.marginal(fact_id)
            agreements[fact_id] = marginal if answers[fact_id] else 1.0 - marginal
        return agreements

    def _apply_recalibration(self, agreements: Dict[str, float]) -> None:
        """Count one merged round's agreements and swap a freshly estimated
        channel overlay into selection and merging."""
        for fact_id, agreement in agreements.items():
            self._agreement_mass[fact_id] = (
                self._agreement_mass.get(fact_id, 0.0) + agreement
            )
            self._agreement_count[fact_id] = self._agreement_count.get(fact_id, 0) + 1
        overrides: Dict[str, float] = {}
        for fact_id, count in self._agreement_count.items():
            prior = self._base_channel.accuracy_for(fact_id)
            estimate = (prior * self._smoothing + self._agreement_mass[fact_id]) / (
                self._smoothing + count
            )
            # Definition 2 bounds channels to [0.5, 1]: a crowd that the
            # posterior overrules more often than not is modelled as random,
            # not adversarial.
            overrides[fact_id] = min(1.0, max(0.5, estimate))
        self._channel = RecalibratedChannelModel(self._base_channel, overrides)
        self._engine.set_channel(self._channel)


class SessionPool:
    """A keyed pool of refinement sessions sharing one lifecycle.

    The refinement service's session registry keeps its tenants here: each
    session is built once and reused — warm bit columns, warm partitions —
    for every round, and aggregate quality metrics (summed utility, pooled
    predicted labels) are computed straight from the sessions' cached
    arrays.

    Sessions added with a parallel policy or a shared evaluator pool hold
    worker-pool slots; the pool-level :meth:`close` (or the context manager)
    releases all of them in one call, so a pool of sessions cannot leak
    worker processes even when one session's selection raises.
    """

    def __init__(self) -> None:
        self._sessions: Dict[str, RefinementSession] = {}

    def add(
        self,
        key: str,
        distribution: JointDistribution,
        channel: ChannelModel,
        interest_ids: Optional[Sequence[str]] = None,
        parallel: Optional[ParallelPolicy] = None,
        runtime: "Optional[RuntimeOptions]" = None,
        evaluator_pool: Optional[EvaluatorPool] = None,
    ) -> RefinementSession:
        """Create, register and return the session for ``key``.

        The keywords are those of :class:`RefinementSession`: ``parallel``
        (or ``runtime.workers``) gives the new session a private worker pool;
        ``evaluator_pool`` instead attaches it to a shared pool (how a
        multi-tenant server keeps the worker count independent of the
        session count).
        """
        if key in self._sessions:
            raise SelectionError(f"session pool already contains key {key!r}")
        session = RefinementSession(
            distribution,
            channel,
            interest_ids=interest_ids,
            parallel=parallel,
            runtime=runtime,
            evaluator_pool=evaluator_pool,
        )
        self._sessions[key] = session
        return session

    def remove(self, key: str) -> RefinementSession:
        """Evict one session, releasing its parallel runtime, and return it.

        The one-session counterpart of :meth:`close`: the session's
        evaluator (private pool or shared-pool slot) is released
        immediately instead of lingering until the whole pool shuts down — a
        long-running server evicting finished tenants needs exactly this, and
        without it a removed entity's worker processes would leak until
        :meth:`close`.  The evicted session itself stays usable (serially)
        if the caller still holds a reference.
        """
        try:
            session = self._sessions.pop(key)
        except KeyError:
            raise SelectionError(f"session pool has no key {key!r}") from None
        session.close()
        return session

    def close(self) -> None:
        """Release every session's worker-pool slot (idempotent)."""
        for session in self._sessions.values():
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def select_queries(
        self,
        key: str,
        queries: Sequence[Query],
        k: int,
        exclude: Sequence[str] = (),
    ) -> List[SelectionResult]:
        """Batched multi-query selection against one entity's session."""
        return self[key].select_queries(queries, k, exclude=exclude)

    def __getitem__(self, key: str) -> RefinementSession:
        try:
            return self._sessions[key]
        except KeyError:
            raise SelectionError(f"session pool has no key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[RefinementSession]:
        return iter(self._sessions.values())

    def keys(self) -> "tuple[str, ...]":
        return tuple(self._sessions)

    # -- aggregates ------------------------------------------------------------------

    def total_utility(self) -> float:
        """Summed PWS-quality over all sessions (the experiment curves' y-axis)."""
        return float(sum(session.utility() for session in self._sessions.values()))

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Pooled per-fact labels across all sessions."""
        labels: Dict[str, bool] = {}
        for session in self._sessions.values():
            labels.update(session.predicted_labels(threshold))
        return labels
