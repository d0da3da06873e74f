"""Selection hot-path benchmark: seed vs. engine vs. parallel/batched paths.

Times one greedy selection round — the workload behind Table V — on growing
fact sets, comparing implementations of the same algorithm:

* ``greedy_reference`` — the seed's ``O(n · k · 2^k · |O|)`` dict arithmetic,
* ``greedy``           — the vectorized incremental engine,
* ``greedy_lazy``      — the engine plus CELF lazy evaluation.

All must select the *identical* task set; the engine paths must beat the
reference by at least the acceptance-floor factor on the largest scenario.

Seven follow-on suites ride in the same artifact:

* **heterogeneous channels** — the per-bit 2×2 channel generalisation must
  cost about the same as the uniform BSC path and degenerate to the
  identical selection when all accuracies are equal;
* **session reuse** — a full multi-round Table-V-style run through one
  persistent :class:`RefinementSession` vs. the historical
  rebuild-per-round loop;
* **parallel sharding** — one greedy selection on a scale corpus
  (``2^20``-row support) through a session that owns a fork-shared worker
  pool vs. the serial scan (identical selections), a warm 2-worker session
  that must keep pace with a serial one select for select, plus the
  auto-serial guard showing the Table-V hot path does not regress;
* **batched multi-query scoring** — many queries against one entity through
  one session's shared bit-column cache vs. one fresh engine per query;
* **session pools** — a multi-round run on one session-owned pool fed
  through the shared-memory snapshot ring vs. the serial session;
* **entity fan-out** — the quality experiment with whole entity trajectories
  fanned out across a fork pool, curves identical to the in-process run;
* **merge** — session merges vs. the 5.0 per-row likelihood formula kept in
  ``tests/core/merge_oracle.py``, bit-identical posteriors, on a book-sized
  and a 2^18-row support.

Every run **merge-appends** its scenarios into
``benchmarks/results/BENCH_selection.json`` keyed by scenario id, so entries
recorded by other suites (or earlier PRs) survive; the schema is documented
in ``benchmarks/README.md``.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.kernels import default_tier
from repro.core.merging import merge_answers
from repro.core.query import Query
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    GreedySelector,
    ParallelPolicy,
    QueryGreedySelector,
    RefinementSession,
    get_selector,
)
from repro.core.utility import pws_quality
from repro.crowdsim.platform import SimulatedPlatform
from repro.crowdsim.worker import WorkerPool
from repro.datasets.book import BookCorpusConfig, generate_book_corpus
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.evaluation.experiment import (
    ExperimentConfig,
    build_problems,
    run_quality_experiment,
)
from repro.fusion.majority import MajorityVote

from _bench_utils import RESULTS_DIR
from tests.core.merge_oracle import oracle_merge

NUM_FACTS_GRID = (10, 14, 18)
K = 8
SUPPORT = 512
ACCURACY = 0.8
SEED = 0

#: The acceptance floor: the engine must beat the seed path by at least this
#: factor on the largest scenario (in practice it is orders of magnitude).
MIN_SPEEDUP = 5.0

#: Heterogeneous channels may cost at most this factor over the uniform path
#: (in practice they are within ~1.3x: identical kernels, plus per-candidate
#: noise-entropy bookkeeping).
MAX_HETEROGENEOUS_OVERHEAD = 3.0

#: Session reuse must beat rebuild-per-round end to end by at least this
#: factor on the large-support Table-V-style run (measured ~1.5x).
MIN_SESSION_SPEEDUP = 1.1

#: The scale corpus behind the parallel and batched-query suites.
SCALE_SUPPORT = 1 << 20
SCALE_FACTS = 48
SCALE_WORKERS = 4

#: Parallel sharding must reach this speedup at 4 workers — only asserted on
#: hosts that actually have 4 CPUs (single-CPU runners record the scenario
#: but cannot demonstrate wall-clock wins).
MIN_PARALLEL_SPEEDUP = 2.0

#: Rounds and workers of the pace scenario: a warm pooled session against a
#: serial one on the scale corpus.
PACE_ROUNDS = 4
PACE_WORKERS = 2

#: The pooled selects of the pace scenario may take at most this factor of
#: the serial selects' time with two or more usable CPUs (the pool splits
#: the slice histograms, but each pass is memory-bound and the parent's
#: commits stay serial, so two CPUs reach parity, not a speed-up) ...
MAX_POOLED_OVER_SERIAL = 1.25

#: ... and at most this factor on one usable CPU, where the workers and the
#: parent take turns and only the dispatch itself is overhead.
MAX_POOLED_OVER_SERIAL_ONE_CPU = 2.0

#: A selection on a session with a parallel policy must stay within this
#: factor of a plain session's on the small Table-V hot path (the auto-serial
#: threshold keeps it from ever forking there).
MAX_AUTO_SERIAL_OVERHEAD = 1.05

#: Entity fan-out must beat the in-process experiment by at least this factor
#: on >=4-CPU hosts (identical curves are asserted everywhere).
MIN_ENTITY_SPEEDUP = 1.1

#: A session merge on the large merge scenario must beat the 5.0 per-row
#: merge by at least this factor (measured about 7x on a 2-CPU VM).
MIN_MERGE_SPEEDUP = 2.0

#: Support rows of the large merge scenario (48 facts, as the scale corpus).
MERGE_SCALE_SUPPORT = 1 << 18


# -- artifact layer (merge-append, keyed by scenario) -------------------------------

_ARTIFACT_DESCRIPTION = (
    "Selection hot-path trajectory: greedy selection rounds on sparse joint "
    "distributions across engine generations (seed pure-Python, vectorized "
    "incremental, CELF lazy, fork-parallel, batched multi-query). Keyed by "
    "scenario id; times are best-of-run wall seconds. Schema: see "
    "benchmarks/README.md."
)


def _artifact_path():
    return RESULTS_DIR / "BENCH_selection.json"


def _migrate_legacy(artifact: dict) -> dict:
    """Lift the PR-2/PR-3 artifact layout into the keyed-scenario schema."""
    scenarios = artifact.get("scenarios")
    migrated: dict = {}
    if isinstance(scenarios, list):
        for row in scenarios:
            key = f"hotpath/n{row['num_facts']}_k{row['k']}_s{row['support']}"
            migrated[key] = dict(row, suite="hotpath")
    elif isinstance(scenarios, dict):
        migrated.update(scenarios)
    legacy_heterogeneous = artifact.get("heterogeneous_channels")
    if isinstance(legacy_heterogeneous, dict):
        key = (
            f"heterogeneous/n{legacy_heterogeneous.get('num_facts', 0)}"
            f"_k{legacy_heterogeneous.get('k', 0)}"
            f"_s{legacy_heterogeneous.get('support', 0)}"
        )
        migrated[key] = dict(legacy_heterogeneous, suite="heterogeneous")
    legacy_session = artifact.get("session_reuse")
    if isinstance(legacy_session, dict):
        for row in legacy_session.get("scenarios", []):
            key = f"session/n{row['num_facts']}_s{row['support']}_k{row['k']}"
            migrated[key] = dict(row, suite="session")
    # Schema v3: every scenario row carries the scan implementation its
    # engine-path timings ran on.  Rows recorded before the field existed ran
    # the numpy scan.
    for row in migrated.values():
        row.setdefault("kernel", "numpy")
    return {
        "benchmark": "selection_hotpath",
        "schema_version": 3,
        "description": _ARTIFACT_DESCRIPTION,
        "scenarios": migrated,
    }


def _load_artifact() -> dict:
    path = _artifact_path()
    if path.exists():
        return _migrate_legacy(json.loads(path.read_text()))
    return _migrate_legacy({})


def _record_scenarios(entries: dict) -> dict:
    """Merge-append ``entries`` (scenario id -> row) into the shared artifact.

    Rows that do not state their ``kernel`` are stamped with the scan
    implementation every engine runs (schema v3; always ``numpy`` since 3.0).
    """
    artifact = _load_artifact()
    for row in entries.values():
        if isinstance(row, dict):
            row.setdefault("kernel", default_tier())
    artifact["scenarios"].update(entries)
    RESULTS_DIR.mkdir(exist_ok=True)
    _artifact_path().write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def sparse_distribution(num_facts: int, seed: int = SEED) -> JointDistribution:
    rng = np.random.default_rng(seed)
    size = min(SUPPORT, 1 << num_facts)
    masks = rng.choice(1 << num_facts, size=size, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=size)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


def best_of(runner, repeats):
    """Best-of-``repeats`` wall seconds of calling ``runner()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - started)
    return best


def interleaved_best_of(first, second, repeats):
    """Best-of-``repeats`` wall seconds of ``first()`` and of ``second()``.

    The two run in turn, alternating which goes first, so a host phase
    (run times on a 2-CPU host swing up to 2x between phases) lands on both
    sides instead of on whichever ran second.
    """
    runners = (first, second)
    best = [float("inf"), float("inf")]
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            started = time.perf_counter()
            runners[side]()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0], best[1]


def time_selector(name: str, distribution: JointDistribution, crowd: CrowdModel, runs: int):
    """Best-of-``runs`` wall time and the (stable) selection result."""
    best = float("inf")
    result = None
    for _ in range(runs):
        selector = get_selector(name)
        started = time.perf_counter()
        result = selector.select(distribution, crowd, K)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_selection_hotpath_speedup():
    crowd = CrowdModel(ACCURACY)
    entries = {}
    rows = []
    for num_facts in NUM_FACTS_GRID:
        distribution = sparse_distribution(num_facts)
        reference_seconds, reference = time_selector(
            "greedy_reference", distribution, crowd, runs=1
        )
        greedy_seconds, greedy = time_selector("greedy", distribution, crowd, runs=3)
        lazy_seconds, lazy = time_selector("greedy_lazy", distribution, crowd, runs=3)

        assert greedy.task_ids == reference.task_ids
        assert lazy.task_ids == reference.task_ids
        assert abs(greedy.objective - reference.objective) < 1e-9

        row = {
            "suite": "hotpath",
            "num_facts": num_facts,
            "k": K,
            "support": SUPPORT,
            "accuracy": ACCURACY,
            "reference_seconds": reference_seconds,
            "greedy_seconds": greedy_seconds,
            "lazy_seconds": lazy_seconds,
            "speedup_greedy": reference_seconds / greedy_seconds,
            "speedup_lazy": reference_seconds / lazy_seconds,
            "selected": list(greedy.task_ids),
            "identical_selections": True,
            "lazy_skipped_evaluations": lazy.stats.skipped_evaluations,
            "greedy_candidate_evaluations": greedy.stats.candidate_evaluations,
            "lazy_candidate_evaluations": lazy.stats.candidate_evaluations,
        }
        rows.append(row)
        entries[f"hotpath/n{num_facts}_k{K}_s{SUPPORT}"] = row

    _record_scenarios(entries)

    largest = rows[-1]
    assert largest["num_facts"] == max(NUM_FACTS_GRID)
    assert largest["speedup_greedy"] >= MIN_SPEEDUP, largest
    assert largest["speedup_lazy"] >= MIN_SPEEDUP, largest


class _ForcedHeterogeneous(PerFactChannelModel):
    """Equal-accuracy channels that refuse the uniform fast path.

    ``PerFactChannelModel`` reports a ``uniform_accuracy`` when every channel
    is equal, which would route the degeneration check below through the very
    BSC code path it is supposed to be compared against; hiding the uniform
    accuracy forces the heterogeneous kernels to run.
    """

    @property
    def uniform_accuracy(self):
        return None


def test_heterogeneous_channels_cost_like_uniform():
    """Per-bit 2×2 channels: same selection cost, identical uniform limit."""
    num_facts = max(NUM_FACTS_GRID)
    distribution = sparse_distribution(num_facts)
    uniform = CrowdModel(ACCURACY)
    rng = np.random.default_rng(SEED + 1)
    heterogeneous = PerFactChannelModel(
        ACCURACY,
        {
            f"f{i}": float(accuracy)
            for i, accuracy in enumerate(
                rng.uniform(0.65, 0.95, size=num_facts).round(3)
            )
        },
    )
    degenerate = _ForcedHeterogeneous(
        ACCURACY, {f"f{i}": ACCURACY for i in range(num_facts)}
    )

    uniform_seconds, uniform_result = time_selector(
        "greedy", distribution, uniform, runs=3
    )
    hetero_seconds, hetero_result = time_selector(
        "greedy", distribution, heterogeneous, runs=3
    )
    _, degenerate_result = time_selector("greedy", distribution, degenerate, runs=1)

    # Equal-accuracy channels are the uniform BSC path, bit for bit.
    assert degenerate_result.task_ids == uniform_result.task_ids
    assert degenerate_result.objective == uniform_result.objective
    assert len(hetero_result.task_ids) == K
    overhead = hetero_seconds / uniform_seconds

    entry = {
        "suite": "heterogeneous",
        "description": (
            "One greedy round (k=8) under per-fact channel accuracies drawn "
            "from U(0.65, 0.95) vs. the uniform Pc=0.8 BSC path."
        ),
        "num_facts": num_facts,
        "k": K,
        "support": SUPPORT,
        "uniform_seconds": uniform_seconds,
        "heterogeneous_seconds": hetero_seconds,
        "overhead_factor": overhead,
        "uniform_selected": list(uniform_result.task_ids),
        "heterogeneous_selected": list(hetero_result.task_ids),
        "equal_accuracy_channels_match_uniform": True,
    }
    _record_scenarios({f"heterogeneous/n{num_facts}_k{K}_s{SUPPORT}": entry})

    assert overhead <= MAX_HETEROGENEOUS_OVERHEAD, entry


def _session_scenario_distribution(num_facts: int, support: int) -> JointDistribution:
    rng = np.random.default_rng(SEED)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


def test_session_reuse_beats_rebuild_per_round():
    """Full Table-V-style runs: persistent session vs. rebuild-per-round."""
    num_facts = 20
    budget = 60
    crowd = CrowdModel(ACCURACY)

    def make_platform(gold):
        return SimulatedPlatform(
            ground_truth=gold,
            workers=WorkerPool.homogeneous(25, ACCURACY, seed=42),
        )

    def run_fresh(distribution, gold, k):
        """The pre-session loop: fresh selector engine + dict round-trip per round."""
        platform = make_platform(gold)
        current = distribution
        remaining = budget
        task_sets = []
        while remaining > 0:
            size = min(k, remaining, current.num_facts)
            selection = get_selector("greedy").select(current, crowd, size)
            if not selection.task_ids:
                break
            answers = platform.collect(selection.task_ids)
            pws_quality(current)
            current = merge_answers(current, answers, crowd)
            pws_quality(current)
            remaining -= len(selection.task_ids)
            task_sets.append(selection.task_ids)
        return task_sets

    def run_session(distribution, gold, k):
        platform = make_platform(gold)
        engine = CrowdFusionEngine(
            get_selector("greedy"), crowd, budget=budget, tasks_per_round=k
        )
        result = engine.run(distribution, platform)
        return [record.task_ids for record in result.rounds]

    entries = {}
    rows = []
    for support, k in ((512, 1), (512, 3), (2048, 1), (2048, 3)):
        distribution = _session_scenario_distribution(num_facts, support)
        gold = {
            fact_id: index % 2 == 0
            for index, fact_id in enumerate(distribution.fact_ids)
        }
        fresh_sets = run_fresh(distribution, gold, k)
        session_sets = run_session(distribution, gold, k)
        assert session_sets == fresh_sets, (support, k)

        fresh_seconds, session_seconds = interleaved_best_of(
            lambda: run_fresh(distribution, gold, k),
            lambda: run_session(distribution, gold, k),
            repeats=5,
        )
        row = {
            "suite": "session",
            "num_facts": num_facts,
            "support": support,
            "k": k,
            "budget": budget,
            "rounds": len(session_sets),
            "fresh_seconds": fresh_seconds,
            "session_seconds": session_seconds,
            "speedup_session": fresh_seconds / session_seconds,
            "identical_task_sequences": True,
        }
        rows.append(row)
        entries[f"session/n{num_facts}_s{support}_k{k}"] = row

    _record_scenarios(entries)

    headline = max(rows, key=lambda row: row["speedup_session"])
    assert headline["speedup_session"] >= MIN_SESSION_SPEEDUP, rows
    assert all(row["speedup_session"] > 0.9 for row in rows), rows


# -- the merge: count table vs. the 5.0 per-row formula -------------------------------


def _merge_timings(distribution, crowd, rounds, repeats):
    """Best-of-``repeats`` seconds of folding ``rounds`` into the prior, by the
    5.0 per-row oracle and by ``RefinementSession.merge``, round by round in
    alternation; asserts bit-identical posteriors after every round."""
    best_oracle = best_session = float("inf")
    for _ in range(repeats):
        session = RefinementSession(distribution, crowd)
        for answers in rounds:
            # A selection round leaves these columns cached before its merge.
            for fact_id in answers:
                session.engine.bits(fact_id)
        expected = distribution.support_arrays()[1]
        oracle_seconds = session_seconds = 0.0
        for answers in rounds:
            started = time.perf_counter()
            expected = oracle_merge(expected, distribution, answers, crowd)
            oracle_seconds += time.perf_counter() - started
            started = time.perf_counter()
            session.merge(answers)
            session_seconds += time.perf_counter() - started
            assert np.array_equal(session.engine.probabilities, expected)
        best_oracle = min(best_oracle, oracle_seconds)
        best_session = min(best_session, session_seconds)
    return best_oracle, best_session


@pytest.mark.parametrize("scenario", ["book", "scale"])
def test_merge_count_table_beats_the_per_row_formula(scenario):
    """Session merges vs. the 5.0 per-row likelihoods: identical, faster."""
    if scenario == "book":
        num_facts, support, repeats = 11, 2048, 20
        distribution = _session_scenario_distribution(num_facts, support)
    else:
        num_facts, support, repeats = SCALE_FACTS, MERGE_SCALE_SUPPORT, 5
        distribution = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=num_facts, support_size=support, seed=SEED)
        )
    fact_ids = distribution.fact_ids
    rng = np.random.default_rng(SEED)
    k, num_rounds = 3, 20
    rounds = [
        AnswerSet.from_mapping(
            {
                fact_ids[index]: bool(rng.integers(0, 2))
                for index in rng.choice(num_facts, size=k, replace=False)
            }
        )
        for _ in range(num_rounds)
    ]
    channels = {
        "uniform": CrowdModel(ACCURACY),
        "per_fact": PerFactChannelModel(
            ACCURACY, {fact_id: 0.7 for fact_id in fact_ids[::2]}
        ),
    }
    row = {
        "suite": "merge",
        "description": (
            f"{num_rounds} session merges of k={k} answers: the 5.0 per-row "
            "likelihoods (project, popcount, two powers per row; one np.where "
            "factor per fact) vs. RefinementSession.merge (a (k+1)-entry "
            "count table or a 2-entry factor table per fact, gathered through "
            "the engine's cached bit columns). Posteriors bit-identical after "
            "every round."
        ),
        "num_facts": num_facts,
        "support": support,
        "k": k,
        "rounds": num_rounds,
        "identical_posteriors": True,
    }
    for name, crowd in channels.items():
        oracle_seconds, session_seconds = _merge_timings(
            distribution, crowd, rounds, repeats
        )
        row[f"{name}_oracle_seconds"] = oracle_seconds
        row[f"{name}_session_seconds"] = session_seconds
        row[f"{name}_speedup"] = oracle_seconds / session_seconds
    _record_scenarios({f"merge/{scenario}_n{num_facts}_s{support}_k{k}": row})

    if scenario == "scale":
        assert row["uniform_speedup"] >= MIN_MERGE_SPEEDUP, row


# -- parallel sharding on the scale corpus ------------------------------------------


def test_parallel_auto_serial_guards_table5_hot_path():
    """A session with a parallel policy must not regress the small hot path.

    The default :class:`ParallelPolicy` threshold keeps Table-V-sized scans
    (tens of candidates over a few-thousand-row support) in process, so the
    only admissible cost is the threshold check itself.
    """
    distribution = sparse_distribution(max(NUM_FACTS_GRID))
    crowd = CrowdModel(ACCURACY)
    plain_session = RefinementSession(distribution, crowd)
    guarded_session = RefinementSession(
        distribution, crowd, parallel=ParallelPolicy(workers=SCALE_WORKERS)
    )

    def timed(session):
        started = time.perf_counter()
        result = session.select(GreedySelector(), K)
        return time.perf_counter() - started, result

    # Interleave the two paths so background load drifts both best-of
    # measurements equally instead of biasing whichever ran second.  Warm
    # sessions time a few milliseconds per selection, so both are warmed up
    # first and sampled 50 times: 25 samples left the best-of ratio swinging
    # up to ~1.3x on a noisy 2-CPU host.
    plain_seconds = guarded_seconds = float("inf")
    plain = guarded = None
    with guarded_session:
        timed(plain_session)
        timed(guarded_session)
        for _ in range(50):
            seconds, plain = timed(plain_session)
            plain_seconds = min(plain_seconds, seconds)
            seconds, guarded = timed(guarded_session)
            guarded_seconds = min(guarded_seconds, seconds)

    assert guarded.task_ids == plain.task_ids
    assert guarded.stats.workers == 0, "auto-serial threshold failed to hold"
    assert guarded.stats.parallel_evaluations == 0
    overhead = guarded_seconds / plain_seconds

    entry = {
        "suite": "parallel",
        "description": (
            "Auto-serial guard: greedy on a session with a 4-worker "
            "ParallelPolicy on the Table-V hot path (n=18, |O|=512) must stay "
            f"serial and within {MAX_AUTO_SERIAL_OVERHEAD}x of a plain session."
        ),
        "num_facts": max(NUM_FACTS_GRID),
        "k": K,
        "support": SUPPORT,
        "plain_seconds": plain_seconds,
        "guarded_seconds": guarded_seconds,
        "overhead_factor": overhead,
        "stayed_serial": True,
    }
    _record_scenarios(
        {f"parallel/table5_guard_n{max(NUM_FACTS_GRID)}_s{SUPPORT}": entry}
    )
    assert overhead <= MAX_AUTO_SERIAL_OVERHEAD, entry


@pytest.mark.slow
@pytest.mark.parallel
def test_parallel_sharding_on_scale_corpus():
    """Parallel vs. serial greedy on a 2^20-row support: identical, sharded."""
    distribution = generate_scale_distribution(
        ScaleCorpusConfig(num_facts=SCALE_FACTS, support_size=SCALE_SUPPORT, seed=SEED)
    )
    crowd = CrowdModel(ACCURACY)
    k = 3
    cpus = os.cpu_count() or 1

    started = time.perf_counter()
    serial = GreedySelector().select(distribution, crowd, k)
    serial_seconds = time.perf_counter() - started

    policy = ParallelPolicy(workers=SCALE_WORKERS)
    started = time.perf_counter()
    with RefinementSession(distribution, crowd, parallel=policy) as session:
        parallel = session.select(GreedySelector(), k)
    parallel_seconds = time.perf_counter() - started

    assert parallel.task_ids == serial.task_ids
    assert abs(parallel.objective - serial.objective) < 1e-9
    assert parallel.stats.workers == SCALE_WORKERS
    assert parallel.stats.parallel_evaluations > 0
    speedup = serial_seconds / parallel_seconds

    entry = {
        "suite": "parallel",
        "description": (
            "One greedy selection (k=3) on the scale corpus: candidate scans "
            "sharded over a session's fork-shared 4-worker pool vs. the serial "
            "scan. "
            "Selections are bit-for-bit identical; wall-clock speedup is "
            "hardware-bound (recorded cpus)."
        ),
        "num_facts": SCALE_FACTS,
        "k": k,
        "support": SCALE_SUPPORT,
        "workers": SCALE_WORKERS,
        "chunk_size": parallel.stats.chunk_size,
        "cpus": cpus,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup_parallel": speedup,
        "parallel_evaluations": parallel.stats.parallel_evaluations,
        "identical_selections": True,
        "selected": list(serial.task_ids),
    }
    _record_scenarios(
        {f"parallel/scale_n{SCALE_FACTS}_s{SCALE_SUPPORT}_w{SCALE_WORKERS}": entry}
    )

    if cpus >= SCALE_WORKERS:
        assert speedup >= MIN_PARALLEL_SPEEDUP, entry


def test_parallel_pool_keeps_pace_with_the_serial_scan():
    """A warm 2-worker session against a serial one, select for select.

    Both refine the scale corpus for :data:`PACE_ROUNDS` rounds of k=3 with
    scripted answers; each round times one select per side, alternating
    which side goes first, so a host phase lands on both.  The pooled
    selects may take at most :data:`MAX_POOLED_OVER_SERIAL` of the serial
    ones' time on a host with two usable CPUs, and
    :data:`MAX_POOLED_OVER_SERIAL_ONE_CPU` on one.
    """
    distribution = generate_scale_distribution(
        ScaleCorpusConfig(num_facts=SCALE_FACTS, support_size=SCALE_SUPPORT, seed=SEED)
    )
    crowd = CrowdModel(ACCURACY)
    selector = GreedySelector()
    k = 3
    cpus = os.cpu_count() or 1
    cpus_usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus
    policy = ParallelPolicy(workers=PACE_WORKERS, parallel_threshold=0)
    serial_session = RefinementSession(distribution, crowd)
    seconds = {"serial": [], "pooled": []}
    with RefinementSession(distribution, crowd, parallel=policy) as pooled_session:
        sessions = {"serial": serial_session, "pooled": pooled_session}
        # Warm: fork the pool and fill both engines' bit and slice caches.
        for session in sessions.values():
            session.select(selector, k)
        for round_index in range(PACE_ROUNDS):
            order = ("serial", "pooled") if round_index % 2 == 0 else ("pooled", "serial")
            results = {}
            for side in order:
                started = time.perf_counter()
                results[side] = sessions[side].select(selector, k)
                seconds[side].append(time.perf_counter() - started)
            serial, pooled = results["serial"], results["pooled"]
            assert pooled.task_ids == serial.task_ids, round_index
            assert pooled.objective.hex() == serial.objective.hex(), round_index
            assert pooled.stats.parallel_evaluations > 0
            for session in sessions.values():
                session.merge(_scripted_answers(serial.task_ids, round_index))

    ratio = sum(seconds["pooled"]) / sum(seconds["serial"])
    limit = MAX_POOLED_OVER_SERIAL if cpus_usable >= 2 else MAX_POOLED_OVER_SERIAL_ONE_CPU
    entry = {
        "suite": "parallel",
        "description": (
            f"{PACE_ROUNDS} select/merge rounds (k={k}) on the scale corpus: a "
            f"warm {PACE_WORKERS}-worker session (candidates split by mask "
            "slice, one slice histogram per worker per slice) vs. a serial "
            "session, selects timed in alternating order. Selections and "
            f"objectives bit-identical; pooled/serial must stay <= {limit}."
        ),
        "num_facts": SCALE_FACTS,
        "k": k,
        "support": SCALE_SUPPORT,
        "rounds": PACE_ROUNDS,
        "workers": PACE_WORKERS,
        "cpus": cpus,
        "cpus_usable": cpus_usable,
        "serial_select_seconds": seconds["serial"],
        "pooled_select_seconds": seconds["pooled"],
        "pooled_over_serial": ratio,
        "limit": limit,
        "identical_selections": True,
    }
    _record_scenarios(
        {f"parallel/pace_n{SCALE_FACTS}_s{SCALE_SUPPORT}_w{PACE_WORKERS}": entry}
    )
    assert ratio <= limit, entry


@pytest.mark.slow
def test_batched_multi_query_scoring_on_scale_corpus():
    """Many queries against one entity: shared session caches vs. fresh engines."""
    num_facts = 32
    distribution = generate_scale_distribution(
        ScaleCorpusConfig(num_facts=num_facts, support_size=SCALE_SUPPORT, seed=SEED + 1)
    )
    crowd = CrowdModel(ACCURACY)
    k = 2
    queries = [
        Query.of((f"f{3 * index}", f"f{3 * index + 1}"), name=f"q{index}")
        for index in range(5)
    ]

    def run_fresh():
        return [
            QueryGreedySelector(query).select(distribution, crowd, k)
            for query in queries
        ]

    def run_batched():
        session = RefinementSession(distribution, crowd)
        return session.select_queries(queries, k)

    started = time.perf_counter()
    fresh = run_fresh()
    fresh_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched = run_batched()
    batched_seconds = time.perf_counter() - started

    for fresh_result, batched_result in zip(fresh, batched):
        assert batched_result.task_ids == fresh_result.task_ids
        assert abs(batched_result.objective - fresh_result.objective) < 1e-9
    speedup = fresh_seconds / batched_seconds

    entry = {
        "suite": "batched_queries",
        "description": (
            "Five 2-fact queries scored against one scale-corpus entity "
            "(k=2 each): batched through one RefinementSession's shared "
            "bit-column cache vs. one fresh engine per query."
        ),
        "num_facts": num_facts,
        "k": k,
        "support": SCALE_SUPPORT,
        "num_queries": len(queries),
        "fresh_seconds": fresh_seconds,
        "batched_seconds": batched_seconds,
        "speedup_batched": speedup,
        "identical_selections": True,
    }
    _record_scenarios(
        {f"batched_queries/scale_n{num_facts}_s{SCALE_SUPPORT}_q{len(queries)}": entry}
    )
    # Sharing caches must never cost; the win grows with queries per entity.
    assert speedup > 0.9, entry


# -- session-owned pools across rounds ----------------------------------------------


def _scripted_answers(task_ids, round_index):
    """Deterministic answers so every timed run merges the same posteriors."""
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def _run_refinement_rounds(session, selector, rounds, k):
    """Select/merge ``rounds`` times on ``session``; return the task sequences."""
    task_sets = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        task_sets.append(result.task_ids)
        session.merge(_scripted_answers(result.task_ids, round_index))
    return task_sets


@pytest.mark.parallel
def test_session_pool_smoke():
    """Tiny multi-round run on a session-owned pool, for ``make bench-smoke``.

    Small enough for 2-CPU CI hosts; asserts only the equivalence contract
    and records the timings (no speedup floor at this size).
    """
    num_facts, support, rounds, k = 16, 1 << 12, 3, 2
    rng = np.random.default_rng(SEED)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    distribution = JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)),
        dict(zip((int(mask) for mask in masks), probabilities)),
    )
    crowd = CrowdModel(ACCURACY)
    # Threshold zero forces every round's scan onto the pool.
    policy = ParallelPolicy(workers=SCALE_WORKERS, parallel_threshold=0)

    def run_serial():
        return _run_refinement_rounds(
            RefinementSession(distribution, crowd), GreedySelector(), rounds, k
        )

    def run_pooled():
        with RefinementSession(distribution, crowd, parallel=policy) as session:
            return _run_refinement_rounds(session, GreedySelector(), rounds, k)

    assert run_pooled() == run_serial()
    serial_seconds = best_of(run_serial, repeats=2)
    pooled_seconds = best_of(run_pooled, repeats=2)

    entry = {
        "suite": "parallel_session",
        "description": (
            f"{rounds}-round refinement run (k={k}) with every scan forced "
            "onto one session-owned pool fed through the shared-memory "
            "snapshot ring, vs. the serial session.  Identical task "
            "sequences asserted; CI-sized, so fork and IPC fixed costs "
            "dominate and no speedup is expected."
        ),
        "num_facts": num_facts,
        "support": support,
        "rounds": rounds,
        "k": k,
        "workers": SCALE_WORKERS,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": serial_seconds,
        "pooled_seconds": pooled_seconds,
        "pooled_seconds_per_round": pooled_seconds / rounds,
        "identical_task_sequences": True,
    }
    _record_scenarios({f"parallel_session/smoke_n{num_facts}_s{support}_r{rounds}": entry})


# -- cross-entity fan-out ------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parallel
def test_parallel_entities_fan_out():
    """Lock-step experiment: entity fan-out vs the serial loop, identical curves."""
    corpus = generate_book_corpus(
        BookCorpusConfig(
            num_books=12, num_sources=14, max_sources_per_book=10, seed=SEED + 2
        )
    )
    problems = build_problems(
        corpus.database, corpus.gold, MajorityVote(), max_facts_per_entity=14
    )
    config = ExperimentConfig(
        selector="greedy", k=2, budget_per_entity=24, worker_accuracy=ACCURACY,
        seed=SEED,
    )
    fanned_config = replace(
        config, runtime=RuntimeOptions(parallel_entities=SCALE_WORKERS)
    )
    cpus = os.cpu_count() or 1

    serial_result = run_quality_experiment(problems, config)
    fanned_result = run_quality_experiment(problems, fanned_config)
    assert fanned_result.points == serial_result.points

    serial_seconds = best_of(lambda: run_quality_experiment(problems, config), repeats=2)
    fanned_seconds = best_of(lambda: run_quality_experiment(problems, fanned_config), repeats=2)
    speedup = serial_seconds / fanned_seconds

    entry = {
        "suite": "parallel_entities",
        "description": (
            f"Budget-{config.budget_per_entity} quality experiment over "
            f"{len(problems)} books: whole-entity fan-out across "
            f"{SCALE_WORKERS} fork workers vs the in-process run.  Curve points "
            "are asserted identical (same costs, utilities and scores); the "
            "wall-clock speedup is hardware-bound (recorded cpus)."
        ),
        "entities": len(problems),
        "budget_per_entity": config.budget_per_entity,
        "k": config.k,
        "entity_workers": SCALE_WORKERS,
        "cpus": cpus,
        "curve_points": len(serial_result.points),
        "serial_seconds": serial_seconds,
        "fanned_seconds": fanned_seconds,
        "speedup_entities": speedup,
        "identical_curves": True,
    }
    _record_scenarios(
        {f"parallel_entities/books{len(problems)}_b{config.budget_per_entity}"
         f"_w{SCALE_WORKERS}": entry}
    )

    if cpus >= SCALE_WORKERS:
        assert speedup >= MIN_ENTITY_SPEEDUP, entry
