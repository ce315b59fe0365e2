"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_configure_defaults(self):
        args = build_parser().parse_args(["configure"])
        assert args.game == "gomoku"
        assert args.workers == 16

    def test_unknown_game_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["configure", "--game", "chess"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.deadline_ms == 200.0
        assert args.demo_games == 0
        assert args.port == 0

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "quantum"])

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("serve", "--backend", "thread", id="--backend-thread"),
        pytest.param("serve", "--backend", "process", id="--backend-process"),
        pytest.param("serve", "--tree-backend", "array", id="--tree-backend-array"),
        pytest.param("serve", "--inference-backend", "fused",
                     id="--inference-backend-fused"),
        pytest.param("serve", "--evalbus", "auto", id="--evalbus-auto"),
        *(
            pytest.param(command, flag, value, id=f"{command}-{flag}-{value}")
            for command in ("train", "selfplay")
            for flag, value in (("--tree-backend", "array"),
                                ("--inference-backend", "fused"))
        ),
    ])
    def test_serve_rejects_removed_flags(self, command, flag, value):
        """Every command searches over the array tree (local-tree training
        included) and evaluates on the fused plan; serve also always
        searches on threads, with the evaluation bus on or off."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, flag, value])

    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_evalbus_defaults_on(self, command):
        assert build_parser().parse_args([command]).evalbus == "on"
        args = build_parser().parse_args([command, "--evalbus", "off"])
        assert args.evalbus == "off"


class TestCommands:
    def test_configure_cpu(self, capsys):
        rc = main(["configure", "--game", "gomoku", "--size", "9",
                   "--workers", "8", "--profile-playouts", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme" in out
        assert "us/iteration" in out

    def test_configure_gpu(self, capsys):
        rc = main(["configure", "--game", "gomoku", "--size", "9",
                   "--workers", "16", "--gpu", "--profile-playouts", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Algorithm-4 test runs" in out

    def test_simulate_shared(self, capsys):
        rc = main(["simulate", "--game", "tictactoe", "--scheme", "shared",
                   "--workers", "4", "--playouts", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per_iter_us" in out

    def test_simulate_local_gpu(self, capsys):
        rc = main(["simulate", "--game", "gomoku", "--size", "9",
                   "--scheme", "local", "--workers", "8", "--batch", "4",
                   "--gpu", "--playouts", "60"])
        assert rc == 0
        assert "per_iter_us" in capsys.readouterr().out

    def test_train_smoke(self, capsys):
        rc = main(["train", "--game", "tictactoe", "--episodes", "1",
                   "--playouts", "10", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_train_resume_at_target_trains_nothing(self, capsys, tmp_path):
        """Resuming a run whose checkpoint already holds every requested
        episode exits 0 with the checkpoint's digest, training nothing."""
        args = ["train", "--game", "tictactoe", "--episodes", "1",
                "--playouts", "6", "--workers", "1",
                "--checkpoint-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "nothing to do" in resumed
        assert "episodes=" not in resumed and "throughput" not in resumed

        def digest(out):
            return [l for l in out.splitlines() if l.startswith("network digest:")]

        assert digest(resumed) == digest(first) != []

    @pytest.mark.parametrize("backend_args", [
        ["--backend", "thread"],
        ["--backend", "process", "--workers", "2"],
    ], ids=["thread", "process"])
    def test_selfplay_smoke(self, capsys, backend_args):
        rc = main(["selfplay", "--game", "tictactoe", "--games", "2",
                   "--playouts", "8", "--rounds", "1", *backend_args])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round 1:" in out
        assert "games                  2" in out
        assert "outcomes" in out

    def test_serve_demo_smoke(self, capsys):
        """The CI gateway smoke: demo sessions through the TCP client,
        clean shutdown, stats printed."""
        rc = main(["serve", "--demo-games", "2", "--deadline-ms", "150",
                   "--playouts", "8", "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gateway listening" in out
        assert "demo session 2" in out
        assert "latency_p99_ms" in out
        assert "sessions_finished    2" in out

    def test_serve_demo_uniform_evaluator(self, capsys):
        rc = main(["serve", "--demo-games", "1", "--deadline-ms", "100",
                   "--playouts", "8", "--evaluator", "uniform"])
        assert rc == 0
        assert "moves_served" in capsys.readouterr().out
