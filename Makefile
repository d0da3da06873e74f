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
# keeping the fork paths exercised outside manual multi-core runs, and the
# pace floor: a warm 2-worker session on the 2^20-row scale corpus must keep
# pace with a serial one (pooled/serial <= 1.25 on two usable CPUs, <= 2.0
# on one), select for select.
bench-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m "parallel and not slow" \
		tests/core/selection/test_parallel.py \
		tests/core/selection/test_persistent_pool.py \
		tests/core/selection/test_multiplex.py \
		tests/evaluation/test_parallel_entities.py \
		tests/test_cli.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m "not slow" \
		benchmarks/bench_selection_hotpath.py \
		-k "session_pool_smoke or keeps_pace_with_the_serial_scan"

# CI-sized exercise of the entropy engine's candidate scan and the packed
# wide-fact representation: unit + property suites for the bit planes
# (against Python-int masks), JointDistribution (its array-backed
# distributions included: every dict read of an array-built distribution
# against the 5.2 eager dict, bit for bit, and no dict built by the array
# paths, under tracemalloc) and the scale generator (sort-based dedup,
# arrays pinned to 5.2's digests) on planes past 63 facts, the wide-fact refinement suite (the planes engine vs.
# the test tree's object-dtype mask oracle and greedy_reference), the
# batched-scan differential suite (the offset-bincount scan of small
# supports vs. the per-candidate NumPy and scalar oracles, block
# independence), the histogram-scan suite (the per-slice histogram grouping
# of large supports, forced on every batched-scan case and engaging on its
# own past 2^12 rows, vs. the scalar oracle, greedy_reference and the pool:
# pooled scans equal to serial ones as float hex, answer tables included,
# for shuffled candidate lists and for a worker that sat out dispatches;
# chunks of whole mask slices, one scored block per chunk and none in the
# parent; pooled greedy and greedy_lazy rounds equal to serial ones),
# the merge-oracle suite (count-table and factor-gather likelihoods, session
# merges and merge_answers vs. the 5.0 per-row merge kept in the test tree,
# bit for bit on both mask layouts), the partition suite (the int32
# partitions a state builds on first read, however it was made: extend with
# and without a scan, a worker's refresh from a prefix or from scratch, a
# chain nothing read, all equal to the eager int64 refinement; k-1 of them
# per serial k=3 select, and none in a pooled parent, under tracemalloc),
# the in-place merge suite (the blocked session merge vs. the 5.0 per-row
# merge around the block size on both layouts, the prior copied once, no
# write before every column is fetched or when all mass would go, no
# column-sized allocation per merge under tracemalloc), and the wide_facts
# benchmark scenario.
engine-smoke:
	$(PYTEST) -q \
		tests/core/test_bitplanes.py \
		tests/core/test_distribution.py \
		tests/core/test_merge_oracle.py \
		tests/core/test_merge_in_place.py \
		tests/datasets/test_scale.py \
		tests/core/selection/test_wide_facts.py \
		tests/core/selection/test_batched_scan.py \
		tests/core/selection/test_histogram_scan.py \
		tests/core/selection/test_partition.py
	$(PYTEST) -q benchmarks/bench_wide_facts.py

# The fault-injection chaos suite: worker kills mid-scan, hung dispatches,
# corrupted generation headers, a merge crash that fails alone, dropped client
# connections — each asserting the runtime recovers to a trajectory
# bit-identical to an undisturbed run, degrades gracefully past the circuit
# breaker, and leaks no worker processes or /dev/shm segments.  Parallel
# tests are forced on so the fork paths run even on constrained hosts.
chaos-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m chaos

# CI-sized exercise of the durable --run-dir sweep (the lease coordinator
# with local workers): the journal/checkpoint/lock primitives, the sweep's
# serial-equivalence, resume and executor-differential suites, the service
# snapshot/restore + eviction suite, the --run-dir chaos cases (coordinator
# SIGKILL and torn checkpoint then --resume, a worker killed and replaced,
# orphans gone after a coordinator SIGKILL, SIGTERM reaping the workers),
# and the orchestration benchmark scenarios (checkpoint overhead vs the
# in-memory fan-out, resume latency) recorded into
# benchmarks/results/BENCH_selection.json.  Parallel tests are forced on so
# the fork paths run even on constrained hosts.
orchestrate-smoke:
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		tests/orchestration \
		tests/service/test_persistence.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m chaos \
		tests/chaos/test_orchestrator_recovery.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q benchmarks/bench_orchestrator.py

# Boots a real refinement-service server on a loopback port, drives one full
# create → select → post → posterior → close round-trip through the JSON
# client, and asserts that no worker processes leaked.  Then the service
# suites (placement of inline and hopped jobs, deadlines, durability, the
# head-of-line test) and the service chaos cases.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.service.smoke
	$(PYTEST) -q tests/service
	$(PYTEST) -q -m chaos tests/chaos/test_service_chaos.py

# Runs one sweep undisturbed and again on the lease coordinator with two
# loopback workers — one SIGKILLed mid-lease — and asserts the second
# curve.jsonl comes out byte-identical, the kill was fenced and reassigned,
# and no worker processes leaked.  Then the cluster suites: leases, fencing,
# local-worker replacement and hostile peers; the coordinator's group commit
# judged from synced bytes only (commit order, rebuilt-disk resumes, one
# fsync per segment of results, TCP_NODELAY on both ends, injected disk
# faults); and the worker-SIGKILL, zombie and coordinator-SIGKILL chaos
# cases.
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.orchestration.cluster_smoke
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q \
		tests/orchestration/test_cluster.py \
		tests/orchestration/test_group_commit.py
	REPRO_FORCE_PARALLEL_TESTS=1 $(PYTEST) -q -m chaos \
		tests/chaos/test_cluster_recovery.py
