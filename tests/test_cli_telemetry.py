"""CLI surface of the telemetry plane.

``--telemetry`` on ``run``/``simulate``/``campaign``, the per-run path
derivation of :func:`telemetry_path_for`, the ``trace summarize``
subcommand, and the ``degraded:`` summary lines that surface shard
departures in the run report.
"""

import json

import pytest

from repro.experiments.cli import build_parser, main, render_run_summary
from repro.experiments.runner import telemetry_path_for
from repro.telemetry import MemorySink, Telemetry, read_trace, validate_events

from tests.test_cli_run import tiny_cell


class TestTelemetryPathFor:
    def test_base_unchanged_for_single_run(self):
        assert telemetry_path_for("out/trace.jsonl") == "out/trace.jsonl"

    def test_name_and_seed_suffixes(self):
        assert (
            telemetry_path_for("out/trace.jsonl", name="krum-dp")
            == "out/trace-krum-dp.jsonl"
        )
        assert telemetry_path_for("out/trace.jsonl", seed=7) == "out/trace-s7.jsonl"
        assert (
            telemetry_path_for("out/trace.jsonl", name="a", seed=2)
            == "out/trace-a-s2.jsonl"
        )

    def test_extension_defaults_to_jsonl(self):
        assert telemetry_path_for("out/trace", seed=1) == "out/trace-s1.jsonl"


class TestParser:
    def test_run_and_simulate_accept_telemetry(self):
        parser = build_parser()
        arguments = parser.parse_args(["run", "grid.json", "--telemetry", "t.jsonl"])
        assert str(arguments.telemetry) == "t.jsonl"
        arguments = parser.parse_args(
            ["simulate", "grid.json", "--telemetry", "t.jsonl"]
        )
        assert str(arguments.telemetry) == "t.jsonl"

    def test_trace_subcommand_options(self):
        arguments = build_parser().parse_args(["trace", "summarize", "t.jsonl"])
        assert arguments.command == "trace"
        assert arguments.action == "summarize"
        assert str(arguments.trace) == "t.jsonl"

    def test_trace_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "replay", "t.jsonl"])


class TestRunWithTelemetry:
    def test_run_writes_valid_trace(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_cell()))
        trace = tmp_path / "trace.jsonl"
        assert main(["run", str(config), "--telemetry", str(trace)]) == 0
        events = validate_events(read_trace(trace))
        assert events[0]["meta"]["mode"] == "train"

    def test_flag_beats_file_key(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(
                {
                    "configs": [tiny_cell()],
                    "telemetry": str(tmp_path / "from-file.jsonl"),
                }
            )
        )
        flagged = tmp_path / "from-flag.jsonl"
        assert main(["run", str(config), "--telemetry", str(flagged)]) == 0
        assert flagged.exists()
        assert not (tmp_path / "from-file.jsonl").exists()

    def test_file_key_used_without_flag(self, tmp_path, capsys):
        trace = tmp_path / "from-file.jsonl"
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps({"configs": [tiny_cell()], "telemetry": str(trace)})
        )
        assert main(["run", str(config)]) == 0
        validate_events(read_trace(trace))

    def test_multi_cell_multi_seed_get_distinct_traces(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(
                {"configs": [tiny_cell("a", seeds=[1, 2]), tiny_cell("b")]}
            )
        )
        base = tmp_path / "trace.jsonl"
        assert main(["run", str(config), "--telemetry", str(base)]) == 0
        for expected in ("trace-a-s1.jsonl", "trace-a-s2.jsonl", "trace-b.jsonl"):
            validate_events(read_trace(tmp_path / expected))
        assert not base.exists()

    def test_simulate_writes_valid_trace(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_cell()))
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", str(config), "--telemetry", str(trace)]) == 0
        events = validate_events(read_trace(trace))
        assert events[0]["meta"]["mode"] == "simulate"


class TestTraceSummarize:
    def write_trace(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_cell()))
        trace = tmp_path / "trace.jsonl"
        assert main(["run", str(config), "--telemetry", str(trace)]) == 0
        return trace

    def test_summarize_renders_phase_table(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        output = capsys.readouterr().out
        assert "phase" in output and "share" in output
        assert "round." in output
        assert "counters:" in output
        assert "rounds = 4" in output

    def test_summarize_to_output_file(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        report = tmp_path / "summary.txt"
        assert main(["trace", "summarize", str(trace), "--output", str(report)]) == 0
        assert "phase" in report.read_text()

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        with open(trace, "a") as handle:
            handle.write("{not json\n")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "unparseable" in capsys.readouterr().err

    def test_out_of_order_trace_exits_2(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        events.append(dict(events[-1]))  # replayed seq: ordering violation
        trace.write_text("\n".join(json.dumps(event) for event in events) + "\n")
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "does not increase" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["seq", "step", "dur_ns"])
    def test_boolean_count_exits_2(self, tmp_path, capsys, field):
        """A span whose seq, step or dur_ns is JSON true is malformed,
        not a phase."""
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        telemetry.open_run()
        telemetry.set_step(1)
        telemetry.span_ns("round.cohort", 5)
        telemetry.close_run()
        for event in sink.by_kind("span"):
            event[field] = True
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(event) + "\n" for event in sink.events))
        assert main(["trace", "summarize", str(trace)]) == 2
        assert f"{field} must be a non-negative integer" in capsys.readouterr().err


class TestDegradedSummaryLines:
    def outcome_with_departures(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            name="mp-cell", num_steps=2, n=4, f=0, gar="average",
            batch_size=5, seeds=(1,),
        )
        from repro.data.phishing import make_phishing_dataset
        from repro.experiments.runner import run_config
        from repro.models.logistic import LogisticRegressionModel

        outcome = run_config(
            config,
            LogisticRegressionModel(10),
            make_phishing_dataset(seed=0, num_points=60, num_features=10),
            None,
        )
        outcome.departures.append((1, {0: "process died (code 23)"}))
        return outcome

    def test_departures_render_as_degraded_lines(self):
        outcome = self.outcome_with_departures()
        text = render_run_summary({"mp-cell": outcome})
        assert "degraded: mp-cell seed 1 — shard 0: process died (code 23)" in text

    def test_clean_outcomes_render_no_degraded_line(self):
        outcome = self.outcome_with_departures()
        outcome.departures.clear()
        assert "degraded" not in render_run_summary({"mp-cell": outcome})

    def test_departures_survive_save_roundtrip(self, tmp_path):
        from repro.experiments.io import (
            load_outcomes,
            save_outcomes,
        )

        outcome = self.outcome_with_departures()
        path = tmp_path / "outcomes.json"
        save_outcomes({"mp-cell": outcome}, path)
        restored = load_outcomes(path)
        assert restored["mp-cell"].departures == [
            (1, {0: "process died (code 23)"})
        ]


class TestCampaignTelemetry:
    MATRIX = {
        "name": "cli-telemetry",
        "base": {
            "num_steps": 2,
            "n": 3,
            "f": 1,
            "gar": "mda",
            "batch_size": 5,
            "eval_every": 1,
            "seeds": [1],
        },
        "axes": {"attack": [None, "little"]},
        "report": {"rows": "gar", "cols": "attack", "metrics": ["final_loss"]},
    }

    def test_campaign_stamps_trace_paths_into_records(self, tmp_path, capsys):
        manifest = tmp_path / "campaign.json"
        manifest.write_text(json.dumps(self.MATRIX))
        store = tmp_path / "store"
        traces = tmp_path / "traces"
        code = main(
            [
                "campaign", str(manifest),
                "--store", str(store),
                "--telemetry", str(traces),
            ]
        )
        assert code == 0
        records = [
            json.loads(path.read_text())
            for path in sorted(store.glob("records/**/*.json"))
        ]
        assert len(records) == 2
        for record in records:
            trace_path = record["telemetry"]
            assert trace_path is not None
            assert trace_path.endswith(f"{record['key']}.jsonl")
            validate_events(read_trace(trace_path))

    def test_campaign_without_telemetry_stamps_none(self, tmp_path, capsys):
        manifest = tmp_path / "campaign.json"
        manifest.write_text(json.dumps(self.MATRIX))
        store = tmp_path / "store"
        assert main(["campaign", str(manifest), "--store", str(store)]) == 0
        records = [
            json.loads(path.read_text())
            for path in sorted(store.glob("records/**/*.json"))
        ]
        assert records and all(record["telemetry"] is None for record in records)

    def test_telemetry_excluded_from_store_key(self):
        """The trace path is provenance, not identity: a cached record
        must be reused whether or not telemetry was requested."""
        from repro.campaign.matrix import ScenarioMatrix
        from repro.campaign.runner import plan_campaign
        from repro.campaign.store import ResultStore
        import tempfile

        matrix = ScenarioMatrix.from_dict(self.MATRIX)
        with tempfile.TemporaryDirectory() as scratch:
            bare = plan_campaign(matrix, ResultStore(f"{scratch}/a"))
            traced = plan_campaign(
                matrix, ResultStore(f"{scratch}/b"), telemetry=f"{scratch}/t"
            )
        assert [job.key for job in bare.pending] == [
            job.key for job in traced.pending
        ]
        assert all(job.telemetry is None for job in bare.pending)
        assert all(
            job.telemetry == f"{scratch}/t/{job.key}.jsonl"
            for job in traced.pending
        )
