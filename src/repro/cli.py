"""Command-line interface for the CrowdFusion reproduction.

Five subcommands cover the common workflows without writing any Python:

* ``crowdfusion quickstart`` — the paper's running example end to end;
* ``crowdfusion fusion`` — compare the machine-only fusion initialisers on a
  synthetic Book corpus;
* ``crowdfusion experiment`` — run a budgeted crowd-refinement experiment and
  print the quality-vs-cost curve;
* ``crowdfusion serve`` — run the multi-tenant refinement service (sessions
  over a JSON-lines TCP API);
* ``crowdfusion timing`` — measure one-round selection times (Table V style).

Every batch command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.core import CrowdFusionEngine, CrowdModel, pws_quality
from repro.core.runtime import RuntimeOptions
from repro.core.selection import available_selectors, get_selector
from repro.crowdsim import SimulatedPlatform, WorkerPool
from repro.datasets import (
    BookCorpusConfig,
    generate_book_corpus,
    running_example_distribution,
    running_example_facts,
)
from repro.evaluation import (
    ExperimentConfig,
    allocate_budget,
    build_problems,
    format_series,
    format_table,
    measure_selection_times,
    run_quality_experiment,
)
from repro.evaluation.experiment import CROWD_MODEL_KINDS
from repro.exceptions import CrowdFusionError
from repro.fusion import BayesianVote, MajorityVote, ModifiedCRH, TruthFinder
from repro.fusion.pipeline import accuracy_against_gold

_FUSION_METHODS = {
    "majority": MajorityVote,
    "crh": ModifiedCRH,
    "truthfinder": TruthFinder,
    "bayesian": BayesianVote,
}


def _bounded_int(minimum: int, requirement: str):
    """An argparse type enforcing an integer lower bound with a clear message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


_positive_int = _bounded_int(1, "a positive integer")
_nonnegative_int = _bounded_int(0, "non-negative")


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--books", type=int, default=30, help="number of synthetic books")
    parser.add_argument("--sources", type=int, default=16, help="number of synthetic sources")
    parser.add_argument("--seed", type=int, default=7, help="corpus / experiment RNG seed")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Every flag that *defines* a sweep (fingerprint-relevant).

    Shared between ``experiment`` and ``shard-worker``: a remote worker must
    rebuild the exact same problems, config and budget allocation from these
    flags, and the coordinator's fingerprint digest catches a mismatch.
    """
    _add_corpus_arguments(parser)
    parser.add_argument(
        "--selector", default="greedy_prune_pre", choices=available_selectors(),
        help="task-selection algorithm",
    )
    parser.add_argument("--fusion", default="crh", choices=sorted(_FUSION_METHODS),
                        help="machine-only initialiser")
    parser.add_argument("--k", type=int, default=2, help="tasks per round")
    parser.add_argument("--budget", type=int, default=20, help="tasks per book")
    parser.add_argument("--pc", type=float, default=0.85, help="true worker accuracy")
    parser.add_argument("--assumed-pc", type=float, default=None,
                        help="accuracy assumed by the system (defaults to --pc)")
    parser.add_argument("--max-facts", type=int, default=10,
                        help="cap on facts per book")
    parser.add_argument(
        "--allocation", default="fixed", choices=["fixed", "uniform", "proportional", "entropy"],
        help="how the global budget is distributed across books",
    )
    parser.add_argument(
        "--crowd-model", default="uniform", choices=list(CROWD_MODEL_KINDS),
        help="channel model assumed by selection and merging: one shared Pc, "
        "per-fact difficulty-adjusted channels, or a calibrated pre-test estimate",
    )
    parser.add_argument(
        "--recalibrate", action="store_true",
        help="adaptively re-estimate per-fact channel accuracies from "
        "answer/posterior agreement as rounds accumulate",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="shard each entity's candidate scans over a pool of N worker "
        "processes (greedy-family selectors; in-memory sweeps only, "
        "--run-dir and --coordinator refuse it; default: no parallelism)",
    )
    parser.add_argument(
        "--parallel-threshold", type=_nonnegative_int, default=None, metavar="WORK",
        help="minimum scan size (candidates x support rows) before the worker "
        "pool is used; smaller scans always run serially",
    )
    parser.add_argument(
        "--parallel-entities", type=_positive_int, default=None, metavar="N",
        help="fan whole entities out across N processes (each runs one "
        "entity's complete refinement trajectory; curves are identical to "
        "the serial run); mutually exclusive with --workers; in-memory "
        "sweeps only, --run-dir and --coordinator refuse it",
    )


def _make_corpus(args: argparse.Namespace):
    return generate_book_corpus(
        BookCorpusConfig(
            num_books=args.books,
            num_sources=args.sources,
            max_sources_per_book=min(12, args.sources),
            seed=args.seed,
        )
    )


def _cmd_quickstart(args: argparse.Namespace) -> int:
    facts = running_example_facts()
    prior = running_example_distribution()
    crowd = CrowdModel(args.pc)
    print("Facts (Table I):")
    rows = [[fact.fact_id, fact.describe(), prior.marginal(fact.fact_id)] for fact in facts]
    print(format_table(["id", "statement", "P(true)"], rows, float_format="{:.2f}"))
    selection = get_selector("greedy_prune_pre").select(prior, crowd, k=2)
    print(f"\nBest 2 tasks: {selection.task_ids}  H(T) = {selection.objective:.3f}")

    gold = {"f1": True, "f2": True, "f3": True, "f4": False}
    platform = SimulatedPlatform(
        ground_truth=gold, workers=WorkerPool.homogeneous(10, args.pc, seed=args.seed)
    )
    engine = CrowdFusionEngine(
        get_selector("greedy_prune_pre"), crowd, budget=args.budget, tasks_per_round=2
    )
    result = engine.run(prior, platform)
    print(
        f"Utility {pws_quality(prior):.3f} -> {result.final_utility:.3f} "
        f"after {result.total_cost} tasks; labels {result.predicted_labels()}"
    )
    return 0


def _cmd_fusion(args: argparse.Namespace) -> int:
    corpus = _make_corpus(args)
    print(
        f"Corpus: {len(corpus.books)} books, {len(corpus.database)} claims, "
        f"raw correctness {corpus.raw_correctness():.3f}"
    )
    rows = []
    for name, factory in _FUSION_METHODS.items():
        result = factory().run(corpus.database)
        rows.append(
            [name, accuracy_against_gold(result, corpus.gold), result.iterations]
        )
    print(format_table(["method", "accuracy vs gold", "iterations"], rows,
                       float_format="{:.3f}"))
    return 0


def _parse_endpoint(text: str) -> tuple:
    """Split a ``HOST:PORT`` flag value; loud on anything else."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a HOST:PORT endpoint"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{port!r} is not a port number")


def _sweep_setup(args: argparse.Namespace):
    """Problems, config and budget overrides of one sweep, from CLI flags.

    Shared by ``experiment`` (in any mode) and ``shard-worker``: a remote
    worker rebuilds the identical sweep from its own flags, and the
    coordinator's fingerprint digest verifies it got them right.
    """
    corpus = _make_corpus(args)
    problems = build_problems(
        corpus.database,
        corpus.gold,
        _FUSION_METHODS[args.fusion](),
        difficulties=corpus.difficulties,
        max_facts_per_entity=args.max_facts,
    )
    config = ExperimentConfig(
        selector=args.selector,
        k=args.k,
        budget_per_entity=args.budget,
        worker_accuracy=args.pc,
        assumed_accuracy=args.assumed_pc,
        use_difficulties=True,
        seed=args.seed,
        crowd_model=args.crowd_model,
        runtime=RuntimeOptions(
            workers=args.workers,
            parallel_threshold=args.parallel_threshold,
            recalibrate=args.recalibrate,
            parallel_entities=args.parallel_entities,
        ),
    )
    budgets = None
    if args.allocation != "fixed":
        total = args.budget * len(problems)
        budgets = allocate_budget(problems, total, strategy=args.allocation)
    return problems, config, budgets


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        problems, config, budgets = _sweep_setup(args)
    except CrowdFusionError as error:
        # Bad flag combinations and missing platform support surface as one
        # clear line; failures past this point keep their tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = None
    if args.coordinator is not None:
        # Multi-host mode: lease entity ranges to shard workers over TCP.
        from repro.evaluation.reporting import CurveStream
        from repro.orchestration.cluster import ClusterConfig, run_cluster_experiment

        if args.run_dir is None:
            print(
                "error: --coordinator requires --run-dir (the lease ledger "
                "and worker journals live there)",
                file=sys.stderr,
            )
            return 2
        host, port = args.coordinator

        def announce(bound_port: int) -> None:
            # The smoke harness and remote operators parse this line.
            print(f"coordinator listening on {host}:{bound_port}", flush=True)

        try:
            report = run_cluster_experiment(
                problems,
                config,
                ClusterConfig(
                    run_dir=args.run_dir,
                    host=host,
                    port=port,
                    lease_ttl_s=args.lease_ttl_s,
                    heartbeat_s=args.heartbeat_s,
                    lease_entities=args.lease_entities,
                    max_attempts=args.max_attempts,
                    resume=args.resume,
                    local_workers=args.local_workers,
                ),
                budgets=budgets,
                stream=CurveStream(sys.stdout) if args.curve else None,
                on_listening=announce,
            )
        except CrowdFusionError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = report.result
    elif args.run_dir is not None:
        # Durable sweep on this host: the lease coordinator with local
        # workers, journalled, checkpointed, resumable.  Lazy import keeps
        # plain in-memory runs free of the orchestration stack.
        from repro.evaluation.reporting import CurveStream
        from repro.orchestration import OrchestratorConfig, run_checkpointed_experiment

        try:
            report = run_checkpointed_experiment(
                problems,
                config,
                OrchestratorConfig(
                    run_dir=args.run_dir,
                    shards=args.shards,
                    max_attempts=args.max_attempts,
                    resume=args.resume,
                ),
                budgets=budgets,
                stream=CurveStream(sys.stdout) if args.curve else None,
            )
        except CrowdFusionError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = report.result
    else:
        result = run_quality_experiment(problems, config, budgets=budgets)
    extras = ""
    if args.workers is not None:
        extras += f", workers {args.workers}"
    if args.parallel_entities is not None:
        extras += f", {args.parallel_entities} entity workers"
    if args.recalibrate:
        extras += ", recalibrating"
    if report is not None:
        extras += (
            f", run dir {report.run_dir} ({report.completed} done, "
            f"{report.resumed} resumed"
        )
        if report.quarantined:
            extras += f", {len(report.quarantined)} quarantined"
        extras += ")"
        stats = getattr(report, "stats", None)
        if stats is not None:
            extras += (
                f", cluster epoch {stats.epoch} ({stats.leases_granted} leases, "
                f"{stats.leases_expired} expired, {stats.results_rejected} fenced)"
            )
    print(
        f"Selector {args.selector}, k={args.k}, budget {args.budget}/book, "
        f"Pc={args.pc} (assumed {config.model_accuracy}), allocation {args.allocation}, "
        f"crowd model {args.crowd_model}{extras}"
    )
    rows = [
        ["initial", result.initial_point.cost, result.initial_point.f1,
         result.initial_point.utility],
        ["final", result.final_point.cost, result.final_point.f1,
         result.final_point.utility],
    ]
    print(format_table(["stage", "cost", "F1", "utility"], rows, float_format="{:.3f}"))
    if args.curve and report is None:
        # (With --run-dir the CurveStream already printed each point as it
        # was assembled.)
        print(format_series("F1", list(zip(result.costs(), result.f1_series())), 3))
        print(format_series("utility", list(zip(result.costs(), result.utility_series())), 2))
    return 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    # Imported lazily: plain batch commands never touch the cluster stack.
    from repro.orchestration.cluster_worker import run_shard_worker

    try:
        problems, config, budgets = _sweep_setup(args)
    except CrowdFusionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    host, port = args.connect
    worker_id = args.worker_id or f"worker-{os.getpid()}"
    try:
        summary = run_shard_worker(
            problems,
            config,
            dict(budgets or {}),
            host,
            port,
            worker_id,
            reconnect_window_s=args.reconnect_window_s,
        )
    except CrowdFusionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"worker {summary.worker} done: {summary.entities_ok} entities ok, "
        f"{summary.entities_failed} failed, {summary.leases_served} leases, "
        f"{summary.reconnects} reconnects"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the three batch subcommands never pay for the asyncio
    # service stack.
    import asyncio

    from repro.service.server import RefinementService
    from repro.service.transport import bound_port, serve

    async def run() -> None:
        service = RefinementService(
            max_pending=args.max_pending,
            state_dir=args.state_dir,
            max_sessions=args.max_sessions,
            idle_ttl_s=args.idle_ttl_s,
        )
        server = await serve(service, host=args.host, port=args.port)
        print(
            f"refinement service listening on {args.host}:{bound_port(server)}"
            " (Ctrl-C to stop)"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
            pass
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("\nservice stopped")
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    corpus = _make_corpus(args)
    problems = build_problems(
        corpus.database, corpus.gold, MajorityVote(), max_facts_per_entity=args.max_facts
    )
    distributions = [problem.prior for problem in problems[: args.entities]]
    rows = measure_selection_times(
        distributions,
        selectors=args.selectors,
        ks=args.k,
        accuracy=args.pc,
        skip={"opt": args.opt_cap},
    )
    print(
        format_table(
            ["selector", "k", "mean seconds", "runs"],
            [[row.selector, row.k, row.mean_seconds, row.runs] for row in rows],
            float_format="{:.5f}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="crowdfusion",
        description="CrowdFusion (ICDE 2017) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser("quickstart", help="run the paper's running example")
    quickstart.add_argument("--pc", type=float, default=0.8, help="crowd accuracy")
    quickstart.add_argument("--budget", type=int, default=6, help="task budget")
    quickstart.add_argument("--seed", type=int, default=6, help="worker RNG seed")
    quickstart.set_defaults(handler=_cmd_quickstart)

    fusion = subparsers.add_parser("fusion", help="compare machine-only fusion methods")
    _add_corpus_arguments(fusion)
    fusion.set_defaults(handler=_cmd_fusion)

    experiment = subparsers.add_parser("experiment", help="run a crowd-refinement experiment")
    _add_sweep_arguments(experiment)
    experiment.add_argument("--curve", action="store_true", help="print the full quality curve")
    experiment.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="run the sweep durably: lease entity trajectories to local "
        "worker processes, journal every completed entity to DIR and "
        "checkpoint atomically, so the sweep survives kills and resumes "
        "with --resume",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="continue a previous --run-dir sweep: replay its journal, keep "
        "completed entities verbatim and re-run only the rest (curves are "
        "bit-identical to an undisturbed run)",
    )
    experiment.add_argument(
        "--shards", type=_positive_int, default=2, metavar="N",
        help="local worker processes (with --run-dir; default 2)",
    )
    experiment.add_argument(
        "--max-attempts", type=_positive_int, default=3, metavar="N",
        help="attempts per entity before the orchestrator quarantines it "
        "(with --run-dir; default 3)",
    )
    experiment.add_argument(
        "--coordinator", type=_parse_endpoint, default=None, metavar="HOST:PORT",
        help="run as a multi-host cluster coordinator bound to HOST:PORT "
        "(port 0 picks a free one, printed on startup): lease contiguous "
        "entity ranges to shard workers over TCP with heartbeat expiry and "
        "fencing epochs; requires --run-dir, honours --resume",
    )
    experiment.add_argument(
        "--local-workers", type=_nonnegative_int, default=0, metavar="N",
        help="with --coordinator: fork N loopback shard-worker subprocesses "
        "so a single machine can run the whole cluster (default 0: wait "
        "for remote workers)",
    )
    experiment.add_argument(
        "--lease-ttl-s", type=float, default=10.0, metavar="SECONDS",
        help="with --coordinator: fence a lease with no heartbeat for this "
        "long and reassign its remaining entities (default 10)",
    )
    experiment.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="SECONDS",
        help="with --coordinator: heartbeat interval handed to workers; "
        "must be well under --lease-ttl-s (default 2)",
    )
    experiment.add_argument(
        "--lease-entities", type=_positive_int, default=4, metavar="N",
        help="with --coordinator: maximum contiguous entities per lease "
        "grant (default 4)",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    shard_worker = subparsers.add_parser(
        "shard-worker",
        help="join a cluster sweep as a remote shard worker",
        description="Connect to a `crowdfusion experiment --coordinator` "
        "process and serve leased entity ranges.  The sweep-defining flags "
        "must match the coordinator's exactly (verified by fingerprint "
        "digest at the handshake).",
    )
    _add_sweep_arguments(shard_worker)
    shard_worker.add_argument(
        "--connect", type=_parse_endpoint, required=True, metavar="HOST:PORT",
        help="coordinator endpoint to join",
    )
    shard_worker.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="stable worker name (journals land in journal-NAME.jsonl on "
        "the coordinator; default: worker-<pid>)",
    )
    shard_worker.add_argument(
        "--reconnect-window-s", type=float, default=15.0, metavar="SECONDS",
        help="keep retrying a lost coordinator connection this long — "
        "rides out a coordinator restart (--resume) without leaking an "
        "orphan forever (default 15)",
    )
    shard_worker.set_defaults(handler=_cmd_shard_worker)

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant refinement service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 picks a free port)")
    serve.add_argument(
        "--max-pending", type=_positive_int, default=8, metavar="N",
        help="per-session request-queue bound; further requests fail fast "
        "with a 429-style error",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable session snapshots: posterior, channel state and budget "
        "are snapshotted to DIR (debounced after merges) and a restarted "
        "server revives sessions on their next request",
    )
    serve.add_argument(
        "--max-sessions", type=_positive_int, default=None, metavar="N",
        help="LRU cap on resident sessions (requires --state-dir): creating "
        "past the cap evicts the least-recently-used idle session to disk",
    )
    serve.add_argument(
        "--idle-ttl-s", type=float, default=None, metavar="SECONDS",
        help="evict sessions idle this long to disk (requires --state-dir); "
        "their next request revives them transparently",
    )
    serve.set_defaults(handler=_cmd_serve)

    timing = subparsers.add_parser("timing", help="measure one-round selection times")
    _add_corpus_arguments(timing)
    timing.add_argument("--selectors", nargs="+", default=["greedy", "greedy_prune_pre"],
                        help="selectors to time")
    timing.add_argument("--k", nargs="+", type=int, default=[1, 2, 3],
                        help="round sizes to sweep")
    timing.add_argument("--pc", type=float, default=0.8, help="crowd accuracy")
    timing.add_argument("--entities", type=int, default=5,
                        help="number of books to average over")
    timing.add_argument("--max-facts", type=int, default=12, help="cap on facts per book")
    timing.add_argument("--opt-cap", type=int, default=2,
                        help="largest k at which the brute-force selector is timed")
    timing.set_defaults(handler=_cmd_timing)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
