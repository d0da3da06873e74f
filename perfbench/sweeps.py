"""The two quality-sweep workloads: in-process serial and leased cluster."""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List

from common import (
    RUNS_DIR,
    Outcome,
    at_unit_speed,
    book_problems,
    end_to_end_metrics,
    host_slowdown,
    median,
    problems_inputs,
    repeated_setup,
    run_units,
    tracing_overhead,
)
from spans import (
    Instrument,
    combined,
    layer_metrics,
    percentile,
    probe_targets,
    trace_targets,
)

SELECTOR = "greedy_prune_pre"
K = 3

#: sweep_serial: a Figure-4-shaped sweep over the crowd accuracy Pc.
SWEEP_BOOKS = 100
SWEEP_BUDGET = 60
SWEEP_PCS = (0.7, 0.8, 0.9)

#: sweep_cluster: many short entities, so per-entity fixed costs dominate.
CLUSTER_BOOKS = 400
CLUSTER_BUDGET = 6
CLUSTER_PC = 0.8
LEASE_ENTITIES = 8
LOCAL_WORKERS = 2


@dataclass
class _Unit:
    wall: float
    rounds: int
    instrument: Instrument
    result: Any
    journal: Dict[str, Any]
    slowdown: float = 1.0


def _config(seed: int, budget: int, pc: float):
    from repro.evaluation.experiment import ExperimentConfig

    return ExperimentConfig(
        selector=SELECTOR,
        k=K,
        budget_per_entity=budget,
        worker_accuracy=pc,
        use_difficulties=True,
        seed=seed,
    )


def _setup(num_books: int, seed: int, fusion_factory):
    """Repeated corpus + prior set-up; the problems and the timing splits."""
    splits: List[tuple] = []

    def build():
        problems, corpus_s, prior_s = book_problems(num_books, seed, fusion_factory())
        splits.append((corpus_s, prior_s))
        return problems

    problems, calibrated, raw = repeated_setup(build)
    layers = {
        "setup.corpus_s": median([split[0] for split in splits]),
        "setup.prior_s": median([split[1] for split in splits]),
    }
    return problems, (calibrated, raw), layers


def _end_to_end(setup, untraced: List[_Unit], cpu_bound_rate: bool = True):
    return end_to_end_metrics(
        setup,
        untraced,
        segments=lambda u: [(u.rounds, u.wall, u.slowdown)],
        select=lambda u: at_unit_speed(u, u.instrument.samples["selection"]),
        post=lambda u: at_unit_speed(u, u.instrument.samples["merge"]),
        cpu_bound_rate=cpu_bound_rate,
    )


def sweep_serial(seed: int, seconds: float, trace: bool) -> Outcome:
    """One ``run_quality_experiment`` per unit, taking turns over the Pcs."""
    from repro.evaluation.experiment import run_quality_experiment
    from repro.fusion.crh import ModifiedCRH

    problems, setup, setup_layers = _setup(SWEEP_BOOKS, seed, ModifiedCRH)
    configs = [_config(seed, SWEEP_BUDGET, pc) for pc in SWEEP_PCS]
    probes, traces = probe_targets([SELECTOR]), trace_targets([SELECTOR])

    def unit(traced: bool, index: int) -> _Unit:
        instrument = Instrument()
        with instrument.installed(traces if traced else probes):
            started = time.perf_counter()
            with instrument.span("run"):
                curve = run_quality_experiment(problems, configs[index % len(configs)]).points
            wall = time.perf_counter() - started
        rounds = len(instrument.samples["merge"])
        return _Unit(wall, rounds, instrument, curve, {})

    units = run_units(seconds, unit, trace, cycle=len(configs))
    untraced = [u for traced, u in units if not traced]
    traced = [u for traced, u in units if traced]

    # Output check: every unit (traced ones included) reproduces the curve
    # of the first untraced unit with its Pc, point for point.
    errors = []
    references = [u.result for _traced, u in units[: len(configs)]]
    for index, (was_traced, u) in enumerate(units):
        if u.result != references[index % len(configs)]:
            kind = "traced" if was_traced else "untraced"
            errors.append(f"unit {index} ({kind}) curve differs from unit {index % len(configs)}")
    if any(not curve or curve[-1].cost <= curve[0].cost for curve in references):
        errors.append("a sweep spent no budget")

    per_layer = dict(setup_layers, **{"host.slowdown": host_slowdown(untraced)})
    if traced:
        tracer = combined([u.instrument for u in traced])
        per_layer.update(layer_metrics(tracer, len(traced)))
        per_layer["tracing.overhead_ratio"] = tracing_overhead(untraced, traced)
        _calls, run_total, _own = tracer.layer("run")
        covered = sum(
            tracer.layer(layer)[2] for layer in ("selection", "merge", "readout", "crowd")
        )
        per_layer["tracing.coverage_ratio"] = covered / run_total

    attempted = len(units) * len(problems)
    inputs = problems_inputs(problems)
    inputs["experiments_per_cycle"] = len(configs)
    calibrated, raw = _end_to_end(setup, untraced)
    return Outcome(
        attempted=attempted,
        failed=attempted if errors else 0,
        end_to_end=calibrated,
        per_layer=per_layer,
        inputs=inputs,
        raw=raw,
        errors=errors,
    )


@contextmanager
def _worker_exports(instrument: Instrument, directory: Path) -> Iterator[None]:
    """Make every forked local cluster worker dump its instrument on exit.

    Workers fork from this process with the layer wrappers already
    installed; this wraps their entry point so each one writes its latency
    samples and spans to ``directory/<worker>.json`` before exiting.
    """
    from repro.orchestration import cluster_worker

    original = cluster_worker.local_worker_main

    def exporting_main(host: str, port: int, worker_id: str) -> None:
        instrument.reset()
        try:
            original(host, port, worker_id)
        finally:
            path = directory / f"{worker_id}.json"
            path.write_text(json.dumps(instrument.export()), encoding="utf-8")

    cluster_worker.local_worker_main = exporting_main
    try:
        yield
    finally:
        cluster_worker.local_worker_main = original


def _journal_facts(run_dir: Path) -> Dict[str, Any]:
    """Rounds, lease timings and journal volume from a finished run dir."""
    from repro.orchestration.cluster import worker_journal_paths
    from repro.orchestration.journal import read_records
    from repro.orchestration.orchestrator import JOURNAL_NAME

    coordinator_path = str(run_dir / JOURNAL_NAME)
    worker_paths = worker_journal_paths(str(run_dir))
    decisions = read_records(coordinator_path)
    results = [record for path in worker_paths for record in read_records(path)]

    granted: Dict[str, float] = {}
    turnaround: List[float] = []
    idle: List[float] = []
    last_complete: Dict[str, float] = {}
    for record in decisions:
        if record["type"] == "lease_granted":
            granted[record["lease"]] = record["ts"]
            worker = record["worker"]
            if worker in last_complete:
                idle.append(record["ts"] - last_complete.pop(worker))
        elif record["type"] == "lease_complete":
            turnaround.append(record["ts"] - granted[record["lease"]])
            last_complete[record["worker"]] = record["ts"]
    return {
        "rounds": sum(
            len(record["trajectory"]["rounds"])
            for record in results
            if record["type"] == "entity_done"
        ),
        "records": len(decisions) + len(results),
        "bytes": sum(os.path.getsize(p) for p in [coordinator_path, *worker_paths]),
        "turnaround": turnaround,
        "idle": idle,
    }


def sweep_cluster(seed: int, seconds: float, trace: bool) -> Outcome:
    """``run_cluster_experiment`` with two loopback workers per unit."""
    from repro.evaluation.experiment import (
        assemble_curve,
        run_entity_trajectory,
        run_quality_experiment,
    )
    from repro.fusion.majority import MajorityVote
    from repro.orchestration import ClusterConfig, run_cluster_experiment

    problems, setup, setup_layers = _setup(CLUSTER_BOOKS, seed, MajorityVote)
    config = _config(seed, CLUSTER_BUDGET, CLUSTER_PC)
    reference = run_quality_experiment(problems, config).points
    probes, traces = probe_targets([SELECTOR]), trace_targets([SELECTOR])
    base = RUNS_DIR / f"cluster-{os.getpid()}"

    def unit(traced: bool, index: int) -> _Unit:
        instrument = Instrument()
        run_dir, dumps = base / f"run-{index}", base / f"spans-{index}"
        dumps.mkdir(parents=True)
        cluster = ClusterConfig(
            run_dir=str(run_dir),
            lease_entities=LEASE_ENTITIES,
            local_workers=LOCAL_WORKERS,
        )
        with instrument.installed(traces if traced else probes):
            with _worker_exports(instrument, dumps):
                started = time.perf_counter()
                report = run_cluster_experiment(problems, config, cluster)
                wall = time.perf_counter() - started
        workers = Instrument()
        for path in dumps.glob("*.json"):
            workers.absorb(json.loads(path.read_text(encoding="utf-8")))
        journal = _journal_facts(run_dir)
        shutil.rmtree(run_dir)
        shutil.rmtree(dumps)
        return _Unit(wall, journal["rounds"], workers, report, journal)

    try:
        units = run_units(seconds, unit, trace)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:  # another run still uses it
            pass
    untraced = [u for traced, u in units if not traced]
    traced = [u for traced, u in units if traced]

    errors = []
    failed = 0
    for index, (_traced, u) in enumerate(units):
        report = u.result
        failed += len(report.quarantined) + report.stats.results_rejected
        if report.result.points != reference:
            errors.append(f"unit {index}: cluster curve differs from run_quality_experiment")
        merges = len(u.instrument.samples["merge"])
        if merges != u.rounds:
            errors.append(
                f"unit {index}: workers merged {merges} rounds, journals hold {u.rounds}"
            )

    per_layer = dict(setup_layers, **{"host.slowdown": host_slowdown(untraced)})
    if traced:
        tracer = combined([u.instrument for u in traced])
        per_layer.update(layer_metrics(tracer, len(traced)))
        per_layer["tracing.overhead_ratio"] = tracing_overhead(untraced, traced)
        started = time.perf_counter()
        trajectories = [
            run_entity_trajectory(problem, index, config)
            for index, problem in enumerate(problems)
        ]
        compute_s = time.perf_counter() - started
        gold: Dict[str, bool] = {}
        for problem in problems:
            gold.update(problem.gold)
        if assemble_curve(trajectories, gold) != reference:
            errors.append("in-process trajectories disagree with run_quality_experiment")
        per_layer["entity.compute_s"] = compute_s
        per_layer["cluster.overhead_ratio"] = (
            LOCAL_WORKERS * median([u.wall for u in untraced]) / compute_s
        )
        stats = [u.result.stats for u in untraced]
        per_layer.update(
            {
                "cluster.leases": median([s.leases_granted for s in stats]),
                "cluster.results_accepted": median([s.results_accepted for s in stats]),
                "cluster.results_rejected": median([s.results_rejected for s in stats]),
                "cluster.leases_expired": median([s.leases_expired for s in stats]),
                "lease.turnaround_ms_p50": 1e3 * median(
                    [percentile(u.journal["turnaround"], 0.5) for u in untraced]
                ),
                "lease.idle_ms_p50": 1e3 * median(
                    [percentile(u.journal["idle"], 0.5) for u in untraced]
                ),
                "journal.records": median([u.journal["records"] for u in untraced]),
                "journal.bytes": median([u.journal["bytes"] for u in untraced]),
            }
        )

    attempted = len(units) * len(problems)
    # The leased sweep's wall is bound by journal fsyncs and socket waits, not
    # by CPU, so its rate is reported as measured (see README.md).
    calibrated, raw = _end_to_end(setup, untraced, cpu_bound_rate=False)
    return Outcome(
        attempted=attempted,
        failed=attempted if errors else failed,
        end_to_end=calibrated,
        per_layer=per_layer,
        inputs=problems_inputs(problems),
        raw=raw,
        errors=errors,
    )
