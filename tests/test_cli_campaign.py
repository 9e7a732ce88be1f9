"""Tests for the ``python -m repro campaign`` subcommand."""

import json

import pytest

from repro.campaign.store import ResultStore
from repro.experiments.cli import build_parser, main

MATRIX = {
    "name": "cli-campaign",
    "model": {"name": "logistic", "loss_kind": "mse"},
    "data_seed": 0,
    "base": {
        "num_steps": 2,
        "n": 3,
        "f": 1,
        "batch_size": 5,
        "eval_every": 1,
        "seeds": [1, 2],
    },
    "axes": {"gar": ["mda", "median"]},
    "report": {"rows": "gar", "cols": "attack", "metrics": ["final_accuracy"]},
}


@pytest.fixture()
def matrix_path(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(MATRIX))
    return path


class TestParser:
    def test_defaults(self):
        arguments = build_parser().parse_args(["campaign", "matrix.json"])
        assert arguments.command == "campaign"
        assert str(arguments.store) == "campaign-store"
        assert arguments.max_workers is None
        assert not arguments.smoke
        assert not arguments.dry_run
        assert not arguments.report

    def test_requires_matrix(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])


class TestCampaignCommand:
    def test_dry_run_executes_nothing(self, matrix_path, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            ["campaign", str(matrix_path), "--store", str(store_dir), "--dry-run"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "4 pending run(s)" in output
        assert output.count("miss") == 4
        assert len(ResultStore(store_dir)) == 0

    def test_run_then_warm_cache(self, matrix_path, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["campaign", str(matrix_path), "--store", str(store_dir)]) == 0
        first = capsys.readouterr().out
        assert "4 run(s) executed" in first
        assert "=== campaign cli-campaign ===" in first
        assert "final_accuracy grid" in first
        assert len(ResultStore(store_dir)) == 4

        assert main(["campaign", str(matrix_path), "--store", str(store_dir)]) == 0
        second = capsys.readouterr().out
        assert "0 run(s) executed, 4 cached" in second

    def test_interrupted_report_matches_uninterrupted(
        self, matrix_path, tmp_path, capsys, monkeypatch
    ):
        """The CLI-level resume contract: a report rendered after a kill
        + re-invocation equals the single-shot report byte for byte."""
        import repro.campaign.runner as runner_module

        first_dir, second_dir = tmp_path / "interrupted", tmp_path / "clean"
        real_execute = runner_module.execute_cell
        budget = {"left": 2}

        def flaky_execute(job):
            if budget["left"] <= 0:
                raise KeyboardInterrupt  # simulated ^C mid-campaign
            budget["left"] -= 1
            return real_execute(job)

        monkeypatch.setattr(runner_module, "execute_cell", flaky_execute)
        with pytest.raises(KeyboardInterrupt):
            main(["campaign", str(matrix_path), "--store", str(first_dir)])
        monkeypatch.undo()
        capsys.readouterr()
        assert len(ResultStore(first_dir)) == 2

        first_out = tmp_path / "resumed.txt"
        second_out = tmp_path / "clean.txt"
        assert main(
            ["campaign", str(matrix_path), "--store", str(first_dir),
             "--output", str(first_out)]
        ) == 0
        assert "2 run(s) executed, 2 cached" in capsys.readouterr().out
        assert main(
            ["campaign", str(matrix_path), "--store", str(second_dir),
             "--output", str(second_out)]
        ) == 0
        assert first_out.read_bytes() == second_out.read_bytes()

    def test_smoke_uses_distinct_keys(self, tmp_path, capsys):
        # num_steps > 5, so the smoke trim changes the configs and their
        # keys: a smoke pass must not pollute the full campaign's cache.
        document = dict(MATRIX, base=dict(MATRIX["base"], num_steps=8))
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(document))
        store_dir = tmp_path / "store"
        assert main(["campaign", str(path), "--store", str(store_dir), "--smoke"]) == 0
        capsys.readouterr()
        # The full-size campaign still sees a cold cache.
        assert main(["campaign", str(path), "--store", str(store_dir), "--dry-run"]) == 0
        assert "4 pending run(s)" in capsys.readouterr().out
        # ... while the smoke campaign itself is warm.
        assert main(
            ["campaign", str(path), "--store", str(store_dir), "--smoke", "--dry-run"]
        ) == 0
        assert "0 pending run(s), 2 cached" in capsys.readouterr().out

    def test_report_only_on_empty_store(self, matrix_path, tmp_path, capsys):
        code = main(
            ["campaign", str(matrix_path), "--store", str(tmp_path / "s"), "--report"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "0/4 completed" in output
        assert "pending" in output

    def test_report_writes_output_file(self, matrix_path, tmp_path):
        store_dir = tmp_path / "store"
        target = tmp_path / "report.txt"
        assert main(
            ["campaign", str(matrix_path), "--store", str(store_dir),
             "--output", str(target)]
        ) == 0
        text = target.read_text()
        assert "cli-campaign" in text
        assert "gar=mda" in text

    def test_max_workers_matches_serial(self, matrix_path, tmp_path, capsys):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial_out, parallel_out = tmp_path / "s.txt", tmp_path / "p.txt"
        assert main(
            ["campaign", str(matrix_path), "--store", str(serial_dir),
             "--output", str(serial_out)]
        ) == 0
        assert main(
            ["campaign", str(matrix_path), "--store", str(parallel_dir),
             "--max-workers", "2", "--output", str(parallel_out)]
        ) == 0
        assert serial_out.read_bytes() == parallel_out.read_bytes()


def _unpaired_losses(text):
    """The record's history loses its last loss: one fewer than its steps."""
    record = json.loads(text)
    record["history"]["losses"].pop()
    return json.dumps(record)


class TestDamagedStoreRecords:
    """A record damaged outside the program is no cache hit: the dry run
    lists it as corrupt, and a resume or a report exits 2 naming its key
    and path, without re-running it."""

    @pytest.mark.parametrize(
        "damage",
        [lambda text: '{"cell": 1}', lambda text: '{"broken', _unpaired_losses],
        ids=["wrong-shape", "truncated", "unpaired-history"],
    )
    def test_damaged_record_exits_2_naming_key_and_path(
        self, matrix_path, tmp_path, capsys, damage
    ):
        store_dir = tmp_path / "store"
        assert main(["campaign", str(matrix_path), "--store", str(store_dir)]) == 0
        store = ResultStore(store_dir)
        key = store.keys()[0]
        path = store.path_for(key)
        text = damage(path.read_text())
        path.write_text(text)
        capsys.readouterr()
        command = ["campaign", str(matrix_path), "--store", str(store_dir)]
        assert main([*command, "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "0 pending run(s), 3 cached, 1 corrupt" in output
        (line,) = [line for line in output.splitlines() if line.startswith("  corrupt")]
        assert key[:12] in line
        for extra in (["--report"], []):
            assert main([*command, *extra]) == 2
            error = capsys.readouterr().err
            assert key in error and str(path) in error
        assert path.read_text() == text  # nothing re-ran the cell


class TestCampaignErrors:
    def test_missing_matrix_file_exits_2(self, tmp_path, capsys):
        assert main(["campaign", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["campaign", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_matrix_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MATRIX, grids=[1])))
        assert main(["campaign", str(path)]) == 2
        assert "unknown matrix keys" in capsys.readouterr().err

    def test_invalid_cell_config_exits_2(self, tmp_path, capsys):
        bad = dict(MATRIX, base=dict(MATRIX["base"], num_steps=0))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["campaign", str(path)]) == 2
        assert "num_steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, seeds",
        [
            ("seeds", [1.5]),
            ("seeds", [True]),
            ("count", {"count": True}),
            ("root", {"count": 2, "root": 1.5}),
            ("root", {"count": 2, "root": "7"}),
            ("root", {"count": 2, "root": True}),
            ("root", {"count": 2, "root": -1}),
        ],
        ids=[
            "list-float",
            "list-bool",
            "count-bool",
            "root-float",
            "root-string",
            "root-bool",
            "root-negative",
        ],
    )
    def test_malformed_matrix_seeds_exit_2_naming_the_field(
        self, tmp_path, capsys, field, seeds
    ):
        base = {key: value for key, value in MATRIX["base"].items() if key != "seeds"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MATRIX, base=base, seeds=seeds)))
        store = str(tmp_path / "store")
        assert main(["campaign", str(path), "--dry-run", "--store", store]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_unknown_component_exits_2(self, matrix_path, tmp_path, capsys):
        bad = dict(MATRIX, axes={"gar": ["not-a-gar"]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["campaign", str(path), "--store", str(tmp_path / "s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dry_run_rejects_a_misspelt_gar_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(MATRIX, axes={"gar": ["mda", "mdaa"]})))
        store = str(tmp_path / "store")
        assert main(["campaign", str(path), "--dry-run", "--store", store]) == 2
        assert "field 'gar'" in capsys.readouterr().err

    def test_store_schema_mismatch_exits_2(self, matrix_path, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "meta.json").write_text(json.dumps({"schema": "other/0"}))
        assert main(
            ["campaign", str(matrix_path), "--store", str(store_dir)]
        ) == 2
        assert "schema" in capsys.readouterr().err
