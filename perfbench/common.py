"""Shared pieces of the benchmark workloads: inputs, digests, the unit loop,
host-speed calibration and the end-to-end metric arithmetic."""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import percentile

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for run directories; removed after each unit.
RUNS_DIR = ROOT / ".perfbench_runs"

#: Book corpus shape shared by the sweeps and the service load.
BOOK_SOURCES = 18
MAX_FACTS = 11

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Calls per latency-percentile window, as in the service's own metrics, so
#: a p99 always has at least ten calls beyond it.
LATENCY_WINDOW = 1024

#: Seconds one calibration pass takes on the reference host.  Timings are
#: reported as if measured there (see README.md, "Host-speed calibration").
CALIBRATION_REFERENCE_S = 0.030

_CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 4096)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    inputs: Dict[str, Any]
    #: The end-to-end timings before host-speed calibration.
    raw: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures; any entry makes the run incorrect.
    errors: List[str] = field(default_factory=list)


def _calibration_pass() -> float:
    started = time.perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for value in range(200_000):
        total += value * value
        table[value & 1023] = total
    for _ in range(2000):
        _CALIBRATION_VECTOR.sum()
        np.dot(_CALIBRATION_VECTOR, _CALIBRATION_VECTOR)
    return time.perf_counter() - started


def calibrate() -> float:
    """How much slower than the reference host this host runs right now.

    The fastest of three fixed passes, over the reference pass time.  A pass
    mixes interpreter work (integer arithmetic, dict stores) and small numpy
    calls, like the program's hot paths, but runs none of the program's
    code, so no change to the program can move it.  Taking the fastest pass
    drops momentary stalls and keeps sustained slow phases.
    """
    return min(_calibration_pass() for _ in range(3)) / CALIBRATION_REFERENCE_S


def repeated_setup(
    build: Callable[[], Any], release: Optional[Callable[[Any], None]] = None
) -> Tuple[Any, List[float], List[float]]:
    """Run ``build`` ``SETUP_REPEATS`` times.

    Returns the last result, every set-up time divided by the host slowdown
    measured around it, and the raw times.  ``release`` disposes of an
    earlier result before the next build, outside the timed region.
    """
    calibrated: List[float] = []
    raw: List[float] = []
    result = None
    slowdown = calibrate()
    for _ in range(SETUP_REPEATS):
        if result is not None and release is not None:
            release(result)
        result = None  # drop the previous inputs before building new ones
        started = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - started
        after = calibrate()
        raw.append(elapsed)
        calibrated.append(elapsed / ((slowdown + after) / 2.0))
        slowdown = after
    return result, calibrated, raw


def book_problems(num_books: int, seed: int, fusion) -> Tuple[list, float, float]:
    """A seeded book corpus fused into refinement problems.

    Returns the problems and the corpus-generation and prior-building times.
    """
    from repro.datasets.book import BookCorpusConfig, generate_book_corpus
    from repro.evaluation.experiment import build_problems

    started = time.perf_counter()
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=num_books, num_sources=BOOK_SOURCES, seed=seed)
    )
    generated = time.perf_counter()
    problems = build_problems(
        corpus.database,
        corpus.gold,
        fusion,
        difficulties=corpus.difficulties,
        max_facts_per_entity=MAX_FACTS,
    )
    return problems, generated - started, time.perf_counter() - generated


def distribution_digest(digest, distribution) -> None:
    """Feed one joint distribution into a running hash."""
    masks, probabilities = distribution.support_arrays()
    digest.update("|".join(distribution.fact_ids).encode())
    digest.update(masks.tobytes())
    digest.update(probabilities.tobytes())


def problems_inputs(problems: Sequence[Any]) -> Dict[str, Any]:
    """Sizes and a checksum of generated refinement problems."""
    digest = hashlib.sha256()
    for problem in problems:
        digest.update(problem.entity.encode())
        distribution_digest(digest, problem.prior)
        digest.update(repr(sorted(problem.gold.items())).encode())
        digest.update(repr(sorted(problem.difficulties.items())).encode())
    return {
        "entities": len(problems),
        "facts": sum(problem.prior.num_facts for problem in problems),
        "support_rows": sum(problem.prior.support_size for problem in problems),
        "sha256": digest.hexdigest(),
    }


def run_units(
    seconds: float, unit: Callable[[bool, int], Any], trace: bool, cycle: int = 1
) -> List[Tuple[bool, Any]]:
    """Run ``unit(traced, index)`` until ``seconds`` of wall time are spent.

    Units are short (about a second) so the calibration around each one
    follows the host closely.  A workload whose units take turns over
    ``cycle`` different inputs (``index % cycle``) only stops after a whole
    cycle, so every run weighs them alike.  Untraced runs make at least
    three units and one cycle.  Traced runs alternate an untraced and a
    traced cycle (at least one each) and stop after a traced one, so both
    see the same host conditions and their ratio is the tracing cost.
    Each unit result gets a ``slowdown`` attribute: the mean of the
    calibrations taken just before and just after it.  Calibration and the
    collection before each unit count toward the run's time, not the
    unit's.
    """
    period = cycle * (2 if trace else 1)
    minimum = 2 * cycle if trace else max(3, cycle)
    results: List[Tuple[bool, Any]] = []
    started = time.perf_counter()
    index = 0
    slowdown = calibrate()
    while (
        index < minimum
        or index % period
        or time.perf_counter() - started < seconds
    ):
        traced = trace and (index // cycle) % 2 == 1
        gc.collect()  # start every unit from the same collector state
        result = unit(traced, index)
        after = calibrate()
        result.slowdown = (slowdown + after) / 2.0
        slowdown = after
        results.append((traced, result))
        index += 1
    return results


#: A unit's ``(rounds, wall seconds, slowdown)`` stretches.
Segments = List[Tuple[int, float, float]]
#: A unit's per-call ``(seconds, slowdown)`` latencies.
Latencies = List[Tuple[float, float]]


def at_unit_speed(u: Any, samples: Sequence[float]) -> Latencies:
    """Per-call latencies of a unit timed under one slowdown."""
    return [(sample, u.slowdown) for sample in samples]


def end_to_end_metrics(
    setup: Tuple[List[float], List[float]],
    units: Sequence[Any],
    segments: Callable[[Any], Segments],
    select: Callable[[Any], Latencies],
    post: Callable[[Any], Latencies],
    cpu_bound_rate: bool = True,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics of a run, calibrated and raw.

    ``setup`` is ``(calibrated, raw)`` set-up times.  ``rounds_per_s`` is
    every round of every unit over their summed wall time, each stretch's
    wall divided by its slowdown, except a rate that is not bound by CPU
    (``cpu_bound_rate=False``), which is reported as measured.  Latencies
    are divided by their slowdown and pooled in unit order; percentiles are
    taken within windows of about ``LATENCY_WINDOW`` consecutive calls, then
    the median across windows.  A run with fewer than two windows' worth of
    calls takes each unit as a window.
    """
    calibrated_setup, raw_setup = setup
    stretches = [stretch for u in units for stretch in segments(u)]
    rounds = sum(count for count, _wall, _slowdown in stretches)
    results = []
    for calibrated in (True, False):
        wall = sum(
            elapsed / (slowdown if calibrated and cpu_bound_rate else 1.0)
            for _count, elapsed, slowdown in stretches
        )
        metrics = {
            "setup_s": median(calibrated_setup if calibrated else raw_setup),
            "rounds_per_s": rounds / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        for prefix, samples in (("select", select), ("post", post)):
            windows = _windows(
                [
                    [t / (slowdown if calibrated else 1.0) for t, slowdown in samples(u)]
                    for u in units
                ]
            )
            for name, fraction in (("p50", 0.50), ("p99", 0.99)):
                metrics[f"{prefix}_{name}_ms"] = 1e3 * median(
                    [percentile(window, fraction) for window in windows]
                )
        results.append(metrics)
    return results[0], results[1]


def _windows(per_unit: Sequence[List[float]]) -> List[List[float]]:
    """The units' samples, pooled and cut into runs of ``LATENCY_WINDOW`` or
    more; each unit on its own when the pool is shorter than two windows."""
    pooled = [sample for samples in per_unit for sample in samples]
    count = len(pooled) // LATENCY_WINDOW
    if count < 2:
        return [samples for samples in per_unit if samples]
    size = len(pooled)
    return [pooled[i * size // count:(i + 1) * size // count] for i in range(count)]


def tracing_overhead(untraced: Sequence[Any], traced: Sequence[Any]) -> float:
    """Mean calibrated traced unit wall over the untraced one.

    Means, not medians: ``run_units`` gives both sides the same mix of
    inputs, and the mean weighs each input by its cost.
    """
    return statistics.mean([u.wall / u.slowdown for u in traced]) / statistics.mean(
        [u.wall / u.slowdown for u in untraced]
    )


def host_slowdown(units: Sequence[Any]) -> float:
    return median([u.slowdown for u in units])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
