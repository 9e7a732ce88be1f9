"""Tests for the ``simulate`` and ``components`` CLI subcommands."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main

EXAMPLE_CONFIG = Path(__file__).parent.parent / "examples" / "simulate_async.json"


class TestComponentsCommand:
    def test_lists_every_family(self, capsys):
        assert main(["components"]) == 0
        output = capsys.readouterr().out
        from repro.pipeline.registry import BUILTIN_FAMILIES, REGISTRY

        for family in BUILTIN_FAMILIES:
            assert f"{family}:" in output
            for name in REGISTRY.available(family):
                assert name in output

    def test_lists_new_simulation_families(self, capsys):
        assert main(["components"]) == 0
        output = capsys.readouterr().out
        assert "latency: constant, lognormal, straggler" in output
        assert "policy: async-staleness, semi-sync, sync" in output

    def test_lists_user_registrations(self, capsys):
        from repro.pipeline.registry import REGISTRY

        REGISTRY.register("latency", "cli-test-latency", lambda: None)
        try:
            assert main(["components"]) == 0
            assert "cli-test-latency" in capsys.readouterr().out
        finally:
            REGISTRY._families["latency"].pop("cli-test-latency")


class TestSimulateParser:
    def test_defaults(self):
        arguments = build_parser().parse_args(["simulate", "cfg.json"])
        assert arguments.command == "simulate"
        assert str(arguments.config) == "cfg.json"
        assert arguments.smoke is False
        assert arguments.data_seed is None
        assert arguments.output is None

    def test_smoke_flag(self):
        arguments = build_parser().parse_args(["simulate", "cfg.json", "--smoke"])
        assert arguments.smoke is True


class TestSimulateCommand:
    def test_example_config_smoke(self, capsys):
        """The committed example must run end to end under --smoke."""
        assert main(["simulate", str(EXAMPLE_CONFIG), "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "semisync-straggler-dp" in output
        assert "async-staleness-lognormal" in output
        assert "sync-baseline" in output
        assert "policy" in output and "v-time" in output

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "summary.txt"
        assert (
            main(["simulate", str(EXAMPLE_CONFIG), "--smoke", "--output", str(target)])
            == 0
        )
        assert "sync-baseline" in target.read_text()

    def test_missing_file_is_error_exit(self, capsys):
        assert main(["simulate", "no-such-file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_error_exit(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"name": "x", "policy": "bogus", "seeds": [1]}))
        assert main(["simulate", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_cell_file(self, tmp_path, capsys):
        config = tmp_path / "one.json"
        config.write_text(
            json.dumps(
                {
                    "name": "one-cell",
                    "num_steps": 3,
                    "n": 5,
                    "f": 1,
                    "gar": "median",
                    "attack": "little",
                    "batch_size": 10,
                    "eval_every": 3,
                    "seeds": [1],
                    "policy": "semi-sync",
                    "policy_kwargs": {"buffer_size": 3},
                    "latency": "constant",
                    "latency_kwargs": {"delay": 1.0},
                }
            )
        )
        assert main(["simulate", str(config)]) == 0
        assert "one-cell" in capsys.readouterr().out


class TestConfigSimulationFields:
    def test_round_trip(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            name="x",
            policy="semi-sync",
            policy_kwargs=(("buffer_size", 4),),
            latency="straggler",
            latency_kwargs=(("base", 1.0), ("slowdown", 5.0)),
            participation_rate=0.5,
            participation_kind="uniform",
        )
        restored = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config

    def test_kwargs_accept_json_mappings(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig.from_dict(
            {
                "name": "x",
                "policy_kwargs": {"buffer_size": 4},
                "latency_kwargs": {"delay": 2.0},
            }
        )
        assert config.policy_kwargs == (("buffer_size", 4),)
        assert config.latency_kwargs == (("delay", 2.0),)

    def test_defaults_replay_paper_protocol(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(name="x")
        kwargs = config.experiment_kwargs(1)
        assert kwargs["policy"] == "sync"
        assert kwargs["latency"] is None
        assert kwargs["participation_rate"] == 1.0

    def test_invalid_participation_rate(self):
        from repro.exceptions import ConfigurationError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ConfigurationError, match="participation_rate"):
            ExperimentConfig(name="x", participation_rate=0.0)
