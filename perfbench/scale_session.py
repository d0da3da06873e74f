"""The ``scale_pool`` workload: one 2^20-row entity on a persistent fork pool."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    Outcome,
    calibrate,
    distribution_digest,
    end_to_end_metrics,
    host_slowdown,
    median,
    repeated_setup,
    run_units,
    tracing_overhead,
)
from spans import Instrument, combined, layer_metrics, probe_targets, trace_targets

SELECTOR = "greedy"
FACTS = 48
SUPPORT = 1 << 20
ROUNDS = 6
K = 3
WORKERS = 2
ACCURACY = 0.8
#: Pooled objectives must match the serial session this closely.
OBJECTIVE_TOLERANCE = 1e-9


@dataclass
class _Unit:
    wall: float
    selections: List[Tuple[Tuple[str, ...], float]]
    instrument: Instrument
    parallel_evaluations: int
    rebuilds: int
    breaker_trips: int
    #: Each round's wall time and the host slowdown around it.
    rounds: List[Tuple[float, float]]
    slowdown: float = 1.0


def _refine(
    session, selector, rounds: Optional[List[Tuple[float, float]]] = None
) -> List[Tuple[Tuple[str, ...], float]]:
    """``ROUNDS`` select/merge rounds with scripted answers.

    With ``rounds``, the host is calibrated before the first round and after
    every round (a unit takes seconds, so calibrating only around it would
    follow the host too loosely), and each round's wall time and slowdown
    are appended to it.
    """
    from repro.core.answers import AnswerSet

    selections = []
    slowdown = calibrate() if rounds is not None else 1.0
    for round_index in range(ROUNDS):
        started = time.perf_counter()
        result = selector.select_with_session(session, K)
        selections.append((tuple(result.task_ids), result.objective))
        session.merge(
            AnswerSet.from_mapping(
                {
                    task: (round_index + position) % 2 == 0
                    for position, task in enumerate(result.task_ids)
                }
            )
        )
        if rounds is not None:
            elapsed = time.perf_counter() - started
            after = calibrate()
            rounds.append((elapsed, (slowdown + after) / 2.0))
            slowdown = after
    return selections


def scale_pool(seed: int, seconds: float, trace: bool) -> Outcome:
    """Each unit refines a fresh pooled session of the same distribution."""
    from repro.core.crowd import CrowdModel
    from repro.core.runtime import RuntimeOptions
    from repro.core.selection import get_selector
    from repro.core.selection.session import RefinementSession
    from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution

    channel = CrowdModel(ACCURACY)
    pooled = RuntimeOptions(workers=WORKERS, persistent_pool=True)
    splits: List[Tuple[float, float]] = []

    def build():
        started = time.perf_counter()
        distribution = generate_scale_distribution(
            ScaleCorpusConfig(num_facts=FACTS, support_size=SUPPORT, seed=seed)
        )
        generated = time.perf_counter()
        RefinementSession(distribution, channel, runtime=pooled).close()
        splits.append((generated - started, time.perf_counter() - generated))
        return distribution

    distribution, *setup = repeated_setup(build)
    selector = get_selector(SELECTOR)
    probes, traces = probe_targets([SELECTOR]), trace_targets([SELECTOR])

    def unit(traced: bool, _index: int) -> _Unit:
        instrument = Instrument()
        session = RefinementSession(distribution, channel, runtime=pooled)
        rounds: List[Tuple[float, float]] = []
        try:
            with instrument.installed(traces if traced else probes):
                selections = _refine(session, selector, rounds)
            evaluator = session.shared_evaluator()
            return _Unit(
                sum(elapsed for elapsed, _slowdown in rounds),
                selections,
                instrument,
                evaluator.parallel_evaluations,
                evaluator.pool_rebuilds,
                evaluator.breaker_trips,
                rounds,
            )
        finally:
            session.close()

    units = run_units(seconds, unit, trace)
    untraced = [u for traced, u in units if not traced]
    traced = [u for traced, u in units if traced]

    # Output check: every pooled unit picks the serial session's tasks, with
    # objectives equal to within the tolerance.
    serial = RefinementSession(distribution, channel)
    started = time.perf_counter()
    expected = _refine(serial, selector)
    serial_wall = time.perf_counter() - started
    errors = []
    for index, (_traced, u) in enumerate(units):
        for number, ((tasks, objective), (want, want_objective)) in enumerate(
            zip(u.selections, expected)
        ):
            if tasks != want:
                errors.append(f"unit {index} round {number}: tasks {tasks} != serial {want}")
            elif abs(objective - want_objective) > OBJECTIVE_TOLERANCE:
                errors.append(f"unit {index} round {number}: objective differs from serial")
        if u.parallel_evaluations == 0:
            errors.append(f"unit {index}: the pool never evaluated a candidate")

    def per_round(samples, u):
        return [(sample, slowdown) for sample, (_wall, slowdown) in zip(samples, u.rounds)]

    calibrated, raw = end_to_end_metrics(
        setup,
        untraced,
        segments=lambda u: [(1, elapsed, slowdown) for elapsed, slowdown in u.rounds],
        select=lambda u: per_round(u.instrument.samples["selection"], u),
        post=lambda u: per_round(u.instrument.samples["merge"], u),
    )

    per_layer: Dict[str, float] = {
        "setup.corpus_s": median([split[0] for split in splits]),
        "setup.prior_s": median([split[1] for split in splits]),
        "host.slowdown": host_slowdown(untraced),
    }
    if traced:
        pooled_wall = median([u.wall for u in untraced])
        per_layer.update(layer_metrics(combined([u.instrument for u in traced]), len(traced)))
        per_layer.update(
            {
                "tracing.overhead_ratio": tracing_overhead(untraced, traced),
                "pool.parallel_evals": median(
                    [u.parallel_evaluations for _t, u in units]
                ),
                "pool.first_select_s": median(
                    [u.instrument.samples["selection"][0] for u in untraced]
                ),
                "pool.speedup_vs_serial": serial_wall / pooled_wall,
                "pool.rebuilds": sum(u.rebuilds for _t, u in units),
                "pool.breaker_trips": sum(u.breaker_trips for _t, u in units),
            }
        )

    digest = hashlib.sha256()
    distribution_digest(digest, distribution)
    attempted = len(units) * ROUNDS
    return Outcome(
        attempted=attempted,
        failed=attempted if errors else 0,
        end_to_end=calibrated,
        per_layer=per_layer,
        raw=raw,
        inputs={
            "entities": 1,
            "facts": FACTS,
            "support_rows": SUPPORT,
            "sha256": digest.hexdigest(),
        },
        errors=errors,
    )
