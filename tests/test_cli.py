"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.experiments.cli import build_parser, main, render_figure_text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        arguments = build_parser().parse_args(["table1"])
        assert arguments.dimension == 69
        assert arguments.batch_size == 50
        assert arguments.epsilon == 0.2

    def test_figure_options(self):
        arguments = build_parser().parse_args(["figure3", "--steps", "100", "--seeds", "2"])
        assert arguments.command == "figure3"
        assert arguments.steps == 100
        assert arguments.seeds == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "figure2" in output

    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "mda" in output and "Table 1" in output

    def test_table1_writes_file(self, tmp_path, capsys):
        target = tmp_path / "t1.txt"
        assert main(["table1", "--output", str(target)]) == 0
        assert target.exists()
        assert "mda" in target.read_text()

    def test_table1_custom_dimension(self, capsys):
        assert main(["table1", "--dimension", "500"]) == 0
        assert "d=500" in capsys.readouterr().out

    @pytest.mark.slow
    def test_figure_tiny_run(self, tmp_path, capsys):
        target = tmp_path / "fig.txt"
        code = main(
            ["figure3", "--steps", "10", "--seeds", "1", "--output", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert "figure3" in text
        assert "mda-little" in text


def diverging_grid():
    """A linear-regression cell with no clipping and an absurd LR: the
    parameters overflow to inf/NaN within ~12 steps."""
    return {
        "model": {"name": "linear"},
        "configs": [
            {
                "name": "diverge",
                "num_steps": 14,
                "n": 3,
                "f": 0,
                "gar": "average",
                "batch_size": 5,
                "learning_rate": 1e12,
                "g_max": None,
                "eval_every": 7,
                "seeds": [1],
            }
        ],
    }


class TestExitCodes:
    """Subcommands must exit nonzero on failed runs and invalid configs."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_diverged_exits_1(self, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(diverging_grid()))
        assert main(["run", str(path)]) == 1
        errors = capsys.readouterr().err
        assert "non-finite losses" in errors
        assert "diverge" in errors

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_diverged_exits_1(self, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(diverging_grid()))
        assert main(["simulate", str(path)]) == 1
        assert "non-finite losses" in capsys.readouterr().err

    def test_run_unknown_gar_exits_2(self, tmp_path, capsys):
        grid = diverging_grid()
        grid["configs"][0]["gar"] = "not-a-gar"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(grid))
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_config_field_exits_2(self, tmp_path, capsys):
        grid = diverging_grid()
        grid["configs"][0]["learning_rte"] = 2.0
        del grid["configs"][0]["learning_rate"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(grid))
        assert main(["run", str(path)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_simulate_unknown_policy_exits_2(self, tmp_path, capsys):
        grid = diverging_grid()
        grid["configs"][0]["policy"] = "not-a-policy"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(grid))
        assert main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_model_spec_exits_2(self, tmp_path, capsys):
        grid = diverging_grid()
        grid["model"] = {"name": "not-a-model"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(grid))
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_duplicate_cell_names_exit_2(self, tmp_path, capsys):
        grid = diverging_grid()
        grid["configs"].append(dict(grid["configs"][0]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(grid))
        assert main(["run", str(path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_healthy_run_still_exits_0(self, tmp_path):
        grid = diverging_grid()
        grid["configs"][0].update(
            {"learning_rate": 1.0, "g_max": 0.01, "num_steps": 3}
        )
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(grid))
        assert main(["run", str(path)]) == 0


class TestRenderFigureText:
    @pytest.mark.slow
    def test_contains_both_panels(self):
        from repro.experiments.figures import figure_configs
        from repro.experiments.runner import phishing_environment, run_grid

        model, train_set, test_set = phishing_environment()
        configs = figure_configs(batch_size=20, num_steps=5, seeds=(1,))
        outcomes = run_grid(configs, model, train_set, test_set)
        text = render_figure_text("figure2", outcomes)
        assert "without DP" in text
        assert "with DP" in text
        assert "avg-noattack" in text
