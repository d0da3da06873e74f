"""Common interface for task-selection algorithms."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.exceptions import SelectionError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.selection.session import RefinementSession

#: Objective improvements smaller than this are treated as ties; the earliest
#: candidate wins.  Keeping one shared tolerance makes every greedy variant
#: break ties identically regardless of its numerical evaluation path.
TIE_TOLERANCE = 1e-12


@dataclass
class SelectionStats:
    """Bookkeeping produced by one call to :meth:`TaskSelector.select`.

    Attributes
    ----------
    candidate_evaluations:
        Number of candidate task sets whose objective was actually computed.
    pruned_candidates:
        Number of candidate evaluations *skipped* because the fact was already
        in the pruned set (work saved by Theorem 3).
    pruned_facts:
        Number of distinct facts the pruning rule permanently eliminated.
    elapsed_seconds:
        Wall-clock time spent inside the selector.
    iterations:
        Number of greedy iterations performed (0 for non-iterative selectors).
    cache_hits:
        Number of times an evaluation was served from incremental state reuse
        (the engine's cached partition/channel tables) rather than recomputed
        from the raw support.
    skipped_evaluations:
        Number of candidate evaluations avoided entirely by lazy (CELF-style)
        submodular bounds: the candidate's stale gain already proved it could
        not win the iteration.
    workers:
        Worker processes forked for this selection (0 when every candidate
        scan ran serially — including parallel-configured selections that the
        auto-serial threshold kept in process).
    chunk_size:
        Candidates per dispatched chunk of the most recent parallel scan
        (0 when no scan went parallel).
    parallel_evaluations:
        Number of candidate evaluations served by pool workers rather than
        the selecting process (a subset of ``candidate_evaluations``).
    """

    candidate_evaluations: int = 0
    pruned_candidates: int = 0
    pruned_facts: int = 0
    elapsed_seconds: float = 0.0
    iterations: int = 0
    cache_hits: int = 0
    skipped_evaluations: int = 0
    workers: int = 0
    chunk_size: int = 0
    parallel_evaluations: int = 0


@dataclass(frozen=True)
class SelectionResult:
    """The outcome of one task-selection call.

    Attributes
    ----------
    task_ids:
        The selected fact ids, in selection order.
    objective:
        The achieved objective value — the answer-set entropy ``H(T)`` for the
        standard problem, or the query-based utility for FOI selection.
    stats:
        Performance counters for the selection run.
    """

    task_ids: Tuple[str, ...]
    objective: float
    stats: SelectionStats = field(default_factory=SelectionStats)

    def __len__(self) -> int:
        return len(self.task_ids)


class TaskSelector(abc.ABC):
    """Abstract task selector: pick ``k`` facts to ask the crowd.

    Concrete selectors only implement :meth:`_select`; the public
    :meth:`select` method performs argument validation and timing so that
    every implementation reports comparable statistics.
    """

    #: Short machine-readable identifier used by the registry and benchmarks.
    name: str = "abstract"

    @staticmethod
    def _candidate_pool(
        fact_ids: Sequence[str], k: int, exclude: Sequence[str]
    ) -> "Tuple[List[str], int]":
        """Shared argument validation: the filtered candidate list and capped ``k``."""
        if k <= 0:
            raise SelectionError(f"k must be positive, got {k}")
        excluded = set(exclude)
        unknown = excluded.difference(fact_ids)
        if unknown:
            raise SelectionError(f"cannot exclude unknown facts: {sorted(unknown)}")
        candidates = [fact_id for fact_id in fact_ids if fact_id not in excluded]
        if not candidates:
            raise SelectionError("no candidate facts remain after exclusion")
        return candidates, min(k, len(candidates))

    def select(
        self,
        distribution: JointDistribution,
        crowd: ChannelModel,
        k: int,
        exclude: Sequence[str] = (),
    ) -> SelectionResult:
        """Select up to ``k`` facts (tasks) to ask the crowd.

        Parameters
        ----------
        distribution:
            The current joint output distribution over the fact set.
        crowd:
            Channel model used to evaluate answer-set entropies (a uniform
            :class:`CrowdModel` or any heterogeneous :class:`ChannelModel`).
        k:
            Maximum number of tasks to select this round.  Selectors may
            return fewer tasks (``K* < k``) if no further gain is possible.
        exclude:
            Fact ids that must not be selected (e.g. already resolved facts).
        """
        candidates, k = self._candidate_pool(distribution.fact_ids, k, exclude)
        started = time.perf_counter()
        result = self._select(distribution, crowd, k, candidates)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    def select_with_session(
        self,
        session: "RefinementSession",
        k: int,
        exclude: Sequence[str] = (),
    ) -> SelectionResult:
        """Select against a persistent :class:`RefinementSession`.

        Session-aware selectors (the engine-backed greedy family) score
        candidates directly on the session's warm engine; the base-class
        fallback materialises the session's posterior and runs the ordinary
        :meth:`select` path, so *every* selector works with sessions.
        """
        candidates, k = self._candidate_pool(session.fact_ids, k, exclude)
        started = time.perf_counter()
        result = self._select_with_session(session, k, candidates)
        result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    @abc.abstractmethod
    def _select(
        self,
        distribution: JointDistribution,
        crowd: ChannelModel,
        k: int,
        candidates: Sequence[str],
    ) -> SelectionResult:
        """Selector-specific implementation; ``candidates`` is already filtered."""

    def _select_with_session(
        self,
        session: "RefinementSession",
        k: int,
        candidates: Sequence[str],
    ) -> SelectionResult:
        """Session-path implementation; overridden by engine-backed selectors."""
        return self._select(session.distribution, session.channel, k, candidates)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

