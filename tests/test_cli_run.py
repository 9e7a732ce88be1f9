"""Tests for the CLI ``run`` subcommand and its helpers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.matrix import ScenarioMatrix
from repro.experiments.cli import (
    build_parser,
    load_run_file,
    main,
    render_figure_text,
    render_run_summary,
)
from repro.experiments.config import ExperimentConfig


def tiny_cell(name="smoke", **overrides):
    cell = {
        "name": name,
        "num_steps": 4,
        "n": 5,
        "f": 2,
        "gar": "mda",
        "batch_size": 10,
        "eval_every": 2,
        "seeds": [1],
    }
    cell.update(overrides)
    return cell


def fault_cell(**event):
    """A tiny cell's JSON text whose fault plan holds the one event given."""
    return json.dumps(tiny_cell(faults={"events": [event]}))


EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.json"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_committed_example_parses(path):
    """Every JSON example loads under the current schema, without running."""
    if "axes" in json.loads(path.read_text()):
        assert len(ScenarioMatrix.from_file(path)) > 0
    else:
        assert load_run_file(path)[0]


class TestParser:
    def test_run_options(self):
        arguments = build_parser().parse_args(
            ["run", "grid.json", "--max-workers", "3", "--data-seed", "7"]
        )
        assert arguments.command == "run"
        assert str(arguments.config) == "grid.json"
        assert arguments.max_workers == 3
        assert arguments.data_seed == 7

    def test_run_requires_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestLoadRunFile:
    def test_single_object(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(tiny_cell()))
        configs, model_spec, data_seed, telemetry = load_run_file(path)
        assert [c.name for c in configs] == ["smoke"]
        assert model_spec is None and data_seed is None and telemetry is None

    def test_list_of_cells(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([tiny_cell("a"), tiny_cell("b")]))
        configs, _, _, _ = load_run_file(path)
        assert [c.name for c in configs] == ["a", "b"]
        assert all(isinstance(c, ExperimentConfig) for c in configs)

    def test_grid_document(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "configs": [tiny_cell()],
                    "model": {"name": "logistic", "loss_kind": "mse"},
                    "data_seed": 3,
                    "telemetry": "out/trace.jsonl",
                }
            )
        )
        configs, model_spec, data_seed, telemetry = load_run_file(path)
        assert len(configs) == 1
        assert model_spec == {"name": "logistic", "loss_kind": "mse"}
        assert data_seed == 3
        assert telemetry == "out/trace.jsonl"


class TestRunCommand:
    def test_smoke(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_cell()))
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output
        assert "final loss" in output

    def test_grid_with_model_spec_and_outputs(self, tmp_path, capsys):
        config_path = tmp_path / "grid.json"
        config_path.write_text(
            json.dumps(
                {
                    "configs": [tiny_cell("cell-a"), tiny_cell("cell-b", epsilon=0.5)],
                    "model": {"name": "logistic", "loss_kind": "mse"},
                }
            )
        )
        summary_path = tmp_path / "summary.txt"
        outcomes_path = tmp_path / "outcomes.json"
        code = main(
            [
                "run",
                str(config_path),
                "--max-workers",
                "2",
                "--save",
                str(outcomes_path),
                "--output",
                str(summary_path),
            ]
        )
        assert code == 0
        assert "cell-a" in summary_path.read_text()
        saved = json.loads(outcomes_path.read_text())
        assert set(saved) == {"cell-a", "cell-b"}

    def test_list_mentions_run(self, capsys):
        assert main(["list"]) == 0

    def test_expected_errors_exit_2(self, tmp_path, capsys):
        missing = main(["run", str(tmp_path / "nope.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        malformed = main(["run", str(bad)])
        assert missing == 2
        assert malformed == 2
        errors = capsys.readouterr().err
        assert errors.count("error:") == 2

    @pytest.mark.parametrize(
        "field,text",
        [
            (
                "num_steps",
                json.dumps(tiny_cell(num_steps=0)).replace(
                    '"num_steps": 0', '"num_steps": 1e400'
                ),
            ),
            ("learning_rate", json.dumps(tiny_cell(learning_rate=None))),
            ("learning_rate", json.dumps(tiny_cell(learning_rate=10**400))),
            ("round", fault_cell(kind="drop_round", round="2", worker=0)),
            (
                "name",
                json.dumps(
                    {key: value for key, value in tiny_cell().items() if key != "name"}
                ),
            ),
            ("shard", fault_cell(kind="crash", round=2, shard="0")),
            ("shard", fault_cell(kind="crash", round=2, shard=1.5)),
            ("worker", fault_cell(kind="drop_round", round=2, worker=True)),
            ("worker", fault_cell(kind="drop_round", round=2, worker=[0])),
            (
                "factor",
                fault_cell(kind="corrupt_payload", round=2, worker=0, factor=None),
            ),
            ("seeds", json.dumps(tiny_cell(seeds=[1.5]))),
            ("seeds", json.dumps(tiny_cell(seeds=[True]))),
            ("seeds", json.dumps(tiny_cell(seeds="abc"))),
            ("codec", json.dumps(tiny_cell(codec=7))),
            ("attack", json.dumps(tiny_cell(attack=["little"]))),
            ("attack_kwargs", json.dumps(tiny_cell(attack_kwargs=5))),
            ("policy", json.dumps(tiny_cell(policy="asyncc"))),
            ("participation_kind", json.dumps(tiny_cell(participation_kind=1))),
            ("gar", json.dumps(tiny_cell(gar={"name": "mda", "n": 7}))),
            (
                "noise_kind",
                json.dumps(
                    tiny_cell(epsilon=0.5, noise_kind={"name": "gaussian", "epsilon": 0.9})
                ),
            ),
        ],
        ids=[
            "num_steps-overflow",
            "learning_rate-null",
            "learning_rate-huge-int",
            "fault-round-string",
            "no-name",
            "fault-shard-string",
            "fault-shard-float",
            "fault-worker-bool",
            "fault-worker-list",
            "fault-factor-null",
            "seeds-float",
            "seeds-bool",
            "seeds-string",
            "codec-int",
            "attack-list",
            "attack_kwargs-int",
            "policy-misspelt",
            "participation_kind-int",
            "gar-spec-sets-n",
            "noise_kind-spec-sets-epsilon",
        ],
    )
    def test_malformed_cell_exits_2_naming_the_field(self, tmp_path, field, text):
        path = tmp_path / "cell.json"
        path.write_text(text)
        src = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert process.returncode == 2, process.stderr
        assert "Traceback" not in process.stderr
        errors = [line for line in process.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, process.stderr
        assert f"field '{field}'" in errors[0]

    @pytest.mark.parametrize(
        "cell",
        [
            tiny_cell(codec={"name": "top-k", "k": "x"}),
            tiny_cell(codec="top-k", codec_kwargs={"k": "x"}),
        ],
        ids=["spec", "codec_kwargs"],
    )
    def test_rejected_component_keyword_exits_2_naming_the_codec(
        self, tmp_path, capsys, cell
    ):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(cell))
        assert main(["run", str(path)]) == 2
        stderr = capsys.readouterr().err
        errors = [line for line in stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "codec 'top-k'" in errors[0]

    def test_dict_component_specs_summarise_by_name(self, tmp_path, capsys):
        path = tmp_path / "cell.json"
        path.write_text(
            json.dumps(
                tiny_cell(
                    gar={"name": "mda"},
                    attack={"name": "little", "factor": 1.5},
                    num_steps=2,
                )
            )
        )
        assert main(["run", str(path)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[:3] == ["smoke", "mda", "little"]

    def test_data_seed_flag_beats_config_file(self, tmp_path, monkeypatch):
        """--data-seed must override a data_seed key in the file."""
        import repro.experiments.runner as runner_module

        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"configs": [tiny_cell()], "data_seed": 5}))
        seen = []
        real_environment = runner_module.phishing_environment

        def spy(data_seed=0):
            seen.append(data_seed)
            return real_environment(data_seed)

        monkeypatch.setattr(runner_module, "phishing_environment", spy)
        assert main(["run", str(path), "--data-seed", "9"]) == 0
        assert seen == [9]
        assert main(["run", str(path)]) == 0
        assert seen == [9, 5]


class TestSummaryRendering:
    @pytest.fixture(scope="class")
    def outcome_without_accuracy(self):
        from repro.data.datasets import train_test_split
        from repro.data.phishing import make_phishing_dataset
        from repro.experiments.runner import run_config
        from repro.models.logistic import LogisticRegressionModel
        from repro.rng import generator_from_seed

        dataset = make_phishing_dataset(seed=0, num_points=300, num_features=6)
        train_set, _ = train_test_split(dataset, 250, generator_from_seed(1))
        model = LogisticRegressionModel(6, loss_kind="mse")
        config = ExperimentConfig(
            name="no-test-set", num_steps=4, n=5, f=2, gar="mda",
            batch_size=8, seeds=(1,),
        )
        return run_config(config, model, train_set, None)

    def test_run_summary_renders_na(self, outcome_without_accuracy):
        text = render_run_summary({"no-test-set": outcome_without_accuracy})
        assert "n/a" in text
        assert "no-test-set" in text

    def test_figure_text_survives_missing_accuracy(self, outcome_without_accuracy):
        """The former AttributeError crash: accuracy_stats is None."""
        outcomes = {
            "mda-noattack-nodp": outcome_without_accuracy,
            "mda-noattack-dp": outcome_without_accuracy,
        }
        text = render_figure_text("figure2", outcomes)
        assert "n/a" in text
        assert "without DP" in text
