"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.selector == "greedy_prune_pre"
        assert args.k == 2
        assert args.allocation == "fixed"

    def test_unknown_selector_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--selector", "magic"])

    def test_crowd_model_choices(self):
        args = build_parser().parse_args(["experiment"])
        assert args.crowd_model == "uniform"
        args = build_parser().parse_args(["experiment", "--crowd-model", "calibrated"])
        assert args.crowd_model == "calibrated"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--crowd-model", "psychic"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.max_pending == 8
        assert args.state_dir is None
        assert args.max_sessions is None
        assert args.idle_ttl_s is None

    @pytest.mark.parametrize(
        "flag",
        [
            "--workers",
            "--parallel-threshold",
            "--pools",
            "--dispatch-timeout-ms",
            "--max-rebuilds",
        ],
    )
    def test_serve_pool_flags_are_gone(self, flag, capsys):
        # The service runs no worker pool since 5.0.
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["serve", flag, "2"])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["experiment"], ["shard-worker", "--connect", "127.0.0.1:9"], ["serve"]],
        ids=["experiment", "shard-worker", "serve"],
    )
    def test_kernel_flag_is_gone(self, command, capsys):
        # One candidate-scan implementation since 3.0: there is no tier to pick.
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(command + ["--kernel", "numpy"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --kernel numpy" in capsys.readouterr().err


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--budget", "4", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Best 2 tasks" in output
        assert "Utility" in output

    def test_fusion_compares_all_methods(self, capsys):
        assert main(["fusion", "--books", "8", "--sources", "10", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        for method in ("majority", "crh", "truthfinder", "bayesian"):
            assert method in output

    def test_experiment_prints_initial_and_final(self, capsys):
        code = main(
            [
                "experiment", "--books", "6", "--sources", "10", "--seed", "2",
                "--budget", "6", "--k", "2", "--pc", "0.9",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "initial" in output
        assert "final" in output

    def test_experiment_with_curve_and_allocation(self, capsys):
        code = main(
            [
                "experiment", "--books", "6", "--sources", "10", "--seed", "2",
                "--budget", "6", "--allocation", "entropy", "--curve",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "allocation entropy" in output
        assert "F1:" in output

    def test_experiment_with_difficulty_crowd_model(self, capsys):
        code = main(
            [
                "experiment", "--books", "6", "--sources", "10", "--seed", "2",
                "--budget", "6", "--crowd-model", "difficulty",
            ]
        )
        assert code == 0
        assert "crowd model difficulty" in capsys.readouterr().out

    def test_timing_outputs_selector_rows(self, capsys):
        code = main(
            [
                "timing", "--books", "6", "--sources", "10", "--seed", "4",
                "--selectors", "greedy_prune_pre", "--k", "1", "2",
                "--entities", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "greedy_prune_pre" in output
        assert "mean seconds" in output


class TestParallelFlags:
    """The parallel runtime flags: validation at the parser and config layers."""

    def test_negative_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--workers", "-1"])

    def test_zero_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--workers", "0"])

    def test_non_integer_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--workers", "two"])

    def test_negative_parallel_threshold_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--parallel-threshold", "-5"])

    def test_nonpositive_parallel_entities_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--parallel-entities", "0"])

    def test_parallel_flag_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.workers is None
        assert args.parallel_threshold is None
        assert args.parallel_entities is None

    def test_persistent_pool_flag_is_gone(self):
        # Every worker pool persists across merges; there is no mode to pick.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--persistent-pool"])

    def test_workers_and_parallel_entities_conflict_is_a_clean_error(self, capsys):
        code = main(
            [
                "experiment", "--books", "4", "--sources", "8",
                "--workers", "2", "--parallel-entities", "2",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_durable_sweep_refuses_workers(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        code = main(
            [
                "experiment", "--books", "6", "--budget", "6", "--k", "3",
                "--seed", "5", "--run-dir", str(run_dir), "--workers", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: durable sweeps" in captured.err
        assert "workers=2" in captured.err
        assert captured.out == ""
        assert not run_dir.exists()


@pytest.mark.parallel
class TestParallelCommands:
    def test_experiment_with_workers(self, capsys):
        code = main(
            [
                "experiment", "--books", "4", "--sources", "8", "--seed", "2",
                "--budget", "4", "--workers", "2", "--parallel-threshold", "0",
            ]
        )
        assert code == 0
        assert "workers 2" in capsys.readouterr().out

    def test_experiment_with_parallel_entities(self, capsys):
        code = main(
            [
                "experiment", "--books", "4", "--sources", "8", "--seed", "2",
                "--budget", "4", "--parallel-entities", "2",
            ]
        )
        assert code == 0
        assert "2 entity workers" in capsys.readouterr().out
