"""Task-selection algorithms for CrowdFusion.

All selectors implement the :class:`repro.core.selection.base.TaskSelector`
interface and maximise the answer-set entropy ``H(T)`` (Equation 4), which is
equivalent to maximising the expected utility gain of one crowdsourcing round.

Available selectors (Section III & IV of the paper):

* :class:`BruteForceSelector` — the exact "OPT" baseline.
* :class:`GreedySelector` — Algorithm 1, the ``(1 − 1/e)`` approximation.
* :class:`LazyGreedySelector` — Algorithm 1 with CELF lazy evaluation of
  submodular marginal gains.
* :class:`PruningGreedySelector` — Algorithm 1 plus the Theorem-3 pruning rule.
* :class:`PreprocessingGreedySelector` — Algorithm 1 plus the answer-joint
  preprocessing and incremental partition refinement (Algorithm 2).
* :class:`PrunedPreprocessingGreedySelector` — both accelerations.
* :class:`RandomSelector` — the random baseline used in the evaluation.
* :class:`QueryGreedySelector` — query-based CrowdFusion (Section IV).
* :class:`ReferenceGreedySelector` — the seed's pure-Python greedy, kept for
  equivalence tests and old-vs-new benchmarks.

All non-reference selectors evaluate entropies through the shared vectorized
incremental :class:`EntropyEngine` — with uniform or heterogeneous per-task
channels, scoring each iteration's candidates in one batched
:meth:`EntropyEngine.scan` (a :class:`CandidateScan`) — and can run either on a fresh engine per call or against a
persistent :class:`RefinementSession` that amortises one engine across the
rounds of a multi-round refinement (``TaskSelector.select_with_session``).
:class:`SessionPool` keys such sessions under one lifecycle for the
refinement service's session registry.

Sessions score many queries in one batch off shared cached bit columns
(``RefinementSession.select_queries``), and a :class:`RefinementSession`
built with a :class:`ParallelPolicy` (or attached to a shared
:class:`EvaluatorPool`) shards the greedy family's candidate scans past a
work threshold across a fork-shared ``multiprocessing`` pool
(:mod:`repro.core.selection.parallel`), with selections bit-for-bit
identical to the serial path.  The pool lives for the session's whole
multi-round run: reweighted posteriors are shipped to the long-lived workers
through a shared-memory snapshot ring (and channel swaps are replayed),
instead of the pool being re-forked after every merge.  The CELF lazy
selector shards its refresh loop in batch waves through the same pool.
"""

from repro.core.selection.base import SelectionResult, SelectionStats, TaskSelector
from repro.core.selection.brute_force import BruteForceSelector
from repro.core.selection.engine import CandidateScan, EntropyEngine, SelectionState
from repro.core.selection.fact_entropy import FactEntropySelector
from repro.core.selection.greedy import GreedySelector
from repro.core.selection.lazy import LazyGreedySelector
from repro.core.selection.parallel import (
    EvaluatorPool,
    ParallelPolicy,
    ParallelSelectorMixin,
    PooledEvaluator,
)
from repro.core.selection.preprocessing import (
    PreprocessingGreedySelector,
    PrunedPreprocessingGreedySelector,
)
from repro.core.selection.pruning import PruningGreedySelector
from repro.core.selection.query_greedy import QueryGreedySelector
from repro.core.selection.random_selector import RandomSelector
from repro.core.selection.reference import ReferenceGreedySelector
from repro.core.selection.registry import available_selectors, get_selector
from repro.core.selection.session import RefinementSession, SessionPool

__all__ = [
    "BruteForceSelector",
    "CandidateScan",
    "EntropyEngine",
    "EvaluatorPool",
    "FactEntropySelector",
    "GreedySelector",
    "LazyGreedySelector",
    "ParallelPolicy",
    "ParallelSelectorMixin",
    "PooledEvaluator",
    "PreprocessingGreedySelector",
    "PrunedPreprocessingGreedySelector",
    "PruningGreedySelector",
    "QueryGreedySelector",
    "RandomSelector",
    "ReferenceGreedySelector",
    "RefinementSession",
    "SelectionResult",
    "SelectionState",
    "SelectionStats",
    "SessionPool",
    "TaskSelector",
    "available_selectors",
    "get_selector",
]
