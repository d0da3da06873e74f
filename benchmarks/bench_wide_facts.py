"""Packed wide-fact benchmark (``wide_facts/*``).

A 128-fact corpus on packed uint64 bit planes must beat the object-dtype
(Python-int) mask engine — the test tree's wide-fact oracle,
``tests/core/selection/object_mask_engine.py`` — by at least
``MIN_WIDE_FACTS_SPEEDUP`` on one greedy round, with identical selections.
Asserted on every host: both paths are pure numpy + Python.  The row is
recorded in ``benchmarks/results/BENCH_selection.json`` (schema v3).
"""

import time

from repro.core.crowd import CrowdModel
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.greedy import run_greedy_on_engine
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution

from bench_selection_hotpath import _record_scenarios
from tests.core.selection.object_mask_engine import ObjectMaskEngine

ACCURACY = 0.8
SEED = 5

#: Packed planes vs. the object-dtype engine on a 128-fact corpus: the packed
#: path replaces per-row Python big-int bit extraction with vectorized word
#: ops, so the floor holds on any host (measured ~6-7x).
MIN_WIDE_FACTS_SPEEDUP = 5.0
WIDE_FACTS = 128
WIDE_SUPPORT = 1 << 15


def _scale_distribution(num_facts, support, seed=SEED):
    return generate_scale_distribution(
        ScaleCorpusConfig(num_facts=num_facts, support_size=support, seed=seed)
    )


def _one_round(distribution, crowd, engine_type):
    engine = engine_type(distribution, crowd)
    started = time.perf_counter()
    result = run_greedy_on_engine(engine, 1, distribution.fact_ids)
    return time.perf_counter() - started, result


def test_wide_facts_packed_beats_object_path():
    """128 facts, one greedy round: packed planes vs. the object-mask oracle."""
    distribution = _scale_distribution(WIDE_FACTS, WIDE_SUPPORT)
    crowd = CrowdModel(ACCURACY)

    packed_seconds = object_seconds = float("inf")
    packed_result = object_result = None
    # Fresh engines per repeat so both paths pay their bit-column extraction
    # inside the timed region — that extraction is exactly what packing fixes.
    for _ in range(3):
        seconds, packed_result = _one_round(distribution, crowd, EntropyEngine)
        packed_seconds = min(packed_seconds, seconds)
        seconds, object_result = _one_round(distribution, crowd, ObjectMaskEngine)
        object_seconds = min(object_seconds, seconds)

    assert packed_result.task_ids == object_result.task_ids
    assert abs(packed_result.objective - object_result.objective) <= 1e-9
    speedup = object_seconds / packed_seconds

    entry = {
        "suite": "wide_facts",
        "description": (
            f"One greedy round (k=1, all {WIDE_FACTS} candidates) on a "
            f"{WIDE_FACTS}-fact, 2^15-row corpus: packed uint64 bit planes "
            "vs. the object-dtype Python-int mask engine of the test tree "
            "(the wide-fact oracle).  Identical selections asserted; the "
            "floor holds on any host (no optional dependency)."
        ),
        "num_facts": WIDE_FACTS,
        "k": 1,
        "support": WIDE_SUPPORT,
        "packed_seconds": packed_seconds,
        "object_seconds": object_seconds,
        "speedup_packed": speedup,
        "identical_selections": True,
        "selected": list(packed_result.task_ids),
    }
    _record_scenarios(
        {f"wide_facts/n{WIDE_FACTS}_s{WIDE_SUPPORT}_packed_vs_object": entry}
    )
    assert speedup >= MIN_WIDE_FACTS_SPEEDUP, entry
