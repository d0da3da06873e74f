# Developer entry points for the CrowdFusion reproduction.
#
# The library is import-run from src/ (no install step needed); every target
# works in a fresh checkout.

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-dev bench bench-smoke engine-smoke chaos-smoke serve-smoke orchestrate-smoke cluster-smoke

# Tier-1 suite: the fast default (excludes the slow 2^20-support scenarios).
test:
	$(PYTEST) -x -q

# Tier-1 under the interpreter's development mode (asyncio debug, unclosed-
# resource warnings), with unclosed files and unraisable exceptions as errors.
test-dev:
	PYTHONPATH=src $(PYTHON) -X dev -m pytest -x -q \
		-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning

# All benchmark modules except the slow scale scenarios.  (The bench files
# deliberately do not match pytest's test_*.py pattern, so they must be
# passed explicitly.)
bench:
	$(PYTEST) -q benchmarks/bench_*.py

# CI-sized exercise of the multiprocess selection paths.  The parallel
# markers are normally skipped on constrained hosts, so this forces them on
# (2-CPU runners included): the full parallel equivalence suites — one-shot
# and multi-round session pools, pools shared across engines, entity
# fan-out, CLI flags — plus one tiny session-pool benchmark scenario,
# keeping the fork paths exercised outside manual multi-core runs.
bench-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m "parallel and not slow" \
		tests/core/selection/test_parallel.py \
		tests/core/selection/test_persistent_pool.py \
		tests/core/selection/test_multiplex.py \
		tests/evaluation/test_parallel_entities.py \
		tests/service/test_shared_pool.py \
		tests/test_cli.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m "parallel and not slow" \
		benchmarks/bench_selection_hotpath.py -k session_pool_smoke

# CI-sized exercise of the entropy engine's candidate scan and the packed
# wide-fact representation: unit + property suites for the bit planes
# (against Python-int masks), JointDistribution and the scale generator on
# planes past 63 facts, the wide-fact refinement suite (the planes engine vs.
# the test tree's object-dtype mask oracle and greedy_reference), the
# batched-scan differential suite (the scan vs. the per-candidate NumPy and
# scalar oracles, block independence), and the wide_facts benchmark scenario.
engine-smoke:
	$(PYTEST) -q \
		tests/core/test_bitplanes.py \
		tests/core/test_distribution.py \
		tests/datasets/test_scale.py \
		tests/core/selection/test_wide_facts.py \
		tests/core/selection/test_batched_scan.py
	$(PYTEST) -q benchmarks/bench_wide_facts.py

# The fault-injection chaos suite: worker kills mid-scan, hung dispatches,
# corrupted generation headers, merge crashes mid-batch, dropped client
# connections — each asserting the runtime recovers to a trajectory
# bit-identical to an undisturbed run, degrades gracefully past the circuit
# breaker, and leaks no worker processes or /dev/shm segments.  Parallel
# tests are forced on so the fork paths run even on constrained hosts.
chaos-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m chaos

# CI-sized exercise of the durable orchestrator: the journal/checkpoint/lock
# primitives, the sharded sweep's serial-equivalence and crash-resume suites,
# the service snapshot/restore + eviction suite, and the orchestration
# benchmark scenarios (checkpoint overhead vs the in-memory fan-out, resume
# latency) recorded into benchmarks/results/BENCH_selection.json.  Parallel
# tests are forced on so the fork paths run even on constrained hosts.
orchestrate-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		tests/orchestration \
		tests/service/test_persistence.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q benchmarks/bench_orchestrator.py

# Boots a real refinement-service server on a loopback port, drives one full
# create → select → post → posterior → close round-trip through the JSON
# client, and asserts that no worker processes leaked.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke

# Runs one sweep on the single-host durable orchestrator and again on the
# lease-fenced cluster coordinator with two loopback shard workers — one
# SIGKILLed mid-lease — and asserts the cluster's curve.jsonl comes out
# byte-identical, the kill was fenced and reassigned, and no worker
# processes leaked.
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.orchestration.cluster_smoke
