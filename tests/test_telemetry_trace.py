"""Trace reading and summarising: the ``repro trace summarize`` core.

``read_trace`` must fail loudly on any corruption, ``summarize_trace``
must fold spans/counters/gauges/warnings correctly across sources, and
``render_trace_summary`` must produce the phase table the CLI prints.
"""

import json

import pytest

from repro.telemetry import (
    JsonlSink,
    MemorySink,
    Telemetry,
    TraceError,
    read_trace,
    render_trace_summary,
    summarize_trace,
)


def build_trace():
    """A two-source trace exercising every summarised event kind."""
    chief_sink = MemorySink()
    chief = Telemetry(sinks=[chief_sink], src="chief")
    chief.open_run(mode="train", gar="krum")
    shard_sink = MemorySink()
    shard = Telemetry(sinks=[shard_sink], src="shard:0")
    chief.set_step(1)
    chief.span_ns("round.server", 2_000_000)
    chief.span_ns("round.cohort", 6_000_000)
    chief.counter("rounds")
    chief.set_step(2)
    chief.span_ns("round.server", 2_000_000)
    chief.span_ns("round.block", 4_000_000, rounds=8)
    chief.counter("rounds")
    chief.gauge("privacy.epsilon_spent", 0.5)
    chief.warning("shard.departed", "shard 1 died", exit_code=23)
    shard.set_step(2)
    shard.counter("rounds", 2)
    for event in shard_sink.events:
        chief.forward(event)
    chief.close_run()
    return chief_sink.events


class TestSummarizeTrace:
    def test_phase_totals_counts_and_rounds(self):
        summary = summarize_trace(build_trace())
        phases = summary["phases"]
        assert phases["round.server"]["count"] == 2
        assert phases["round.server"]["total_ns"] == 4_000_000
        assert phases["round.server"]["rounds"] == 2  # one round per span
        assert phases["round.block"]["rounds"] == 8  # block attr honoured
        total = sum(entry["total_ns"] for entry in phases.values())
        assert sum(entry["share"] for entry in phases.values()) == pytest.approx(1.0)
        assert phases["round.cohort"]["share"] == pytest.approx(6_000_000 / total)

    def test_counters_sum_across_sources(self):
        summary = summarize_trace(build_trace())
        # chief counted 2 rounds, shard:0 counted 2 more.
        assert summary["counters"]["rounds"] == 4

    def test_gauges_warnings_meta_srcs(self):
        summary = summarize_trace(build_trace())
        assert summary["gauges"]["privacy.epsilon_spent"] == 0.5
        assert summary["gauges"]["rounds_per_sec"] > 0
        (warning,) = summary["warnings"]
        assert warning["attrs"]["exit_code"] == 23
        assert summary["srcs"] == ["chief", "shard:0"]
        assert summary["meta"] == {"mode": "train", "gar": "krum"}
        assert summary["steps"] == 2
        assert summary["elapsed_ns"] is not None

    def test_validates_before_summarising(self):
        events = build_trace()
        with pytest.raises(TraceError):
            summarize_trace(events[1:])  # missing run_start

    def test_run_end_snapshot_backfills_counters(self):
        """A source whose counter events were lost still contributes its
        run_end snapshot."""
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink], src="chief")
        telemetry.open_run()
        telemetry.counter("rounds", 7)
        sink.events.pop()  # the counter event is lost
        telemetry.close_run()
        assert summarize_trace(sink.events)["counters"]["rounds"] == 7


class TestRenderTraceSummary:
    def test_renders_phase_table_with_bars(self):
        text = render_trace_summary(summarize_trace(build_trace()))
        assert "phase" in text and "share" in text
        assert "round.cohort" in text
        assert "#" in text  # proportional bar
        assert "counters:" in text and "rounds = 4" in text
        assert "gauges:" in text
        assert "warnings (1):" in text
        assert "shard 1 died" in text
        # Longest phase sorts first (flamegraph-style ordering).
        lines = text.splitlines()
        first_phase_row = next(line for line in lines if line.startswith("round."))
        assert first_phase_row.startswith("round.cohort")

    def test_renders_sparse_trace_without_sections(self):
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink])
        telemetry.open_run()
        telemetry.close_run()
        text = render_trace_summary(summarize_trace(sink.events))
        assert "1 source(s)" in text
        assert "warnings" not in text
        assert "phase" not in text


class TestReadTrace:
    def write_trace(self, path):
        telemetry = Telemetry(sinks=[JsonlSink(path)])
        telemetry.open_run(mode="train")
        telemetry.counter("rounds")
        telemetry.close_run()
        telemetry.close()

    def test_roundtrips_jsonl_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        events = read_trace(path)
        summary = summarize_trace(events)
        assert summary["counters"]["rounds"] == 1

    def test_ignores_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(read_trace(path)) == 4  # run_start, counter, gauge, run_end

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            read_trace(tmp_path / "nope.jsonl")

    def test_unparseable_line_names_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        with open(path, "a") as handle:
            handle.write("{truncated\n")
        with pytest.raises(TraceError, match=r":5: unparseable"):
            read_trace(path)

    def test_truncated_trace_fails_validation_not_summarises(self, tmp_path):
        """A trace cut mid-run (no run_start survives a head-truncation)
        must fail, not produce a partial summary."""
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(TraceError, match="run_start"):
            summarize_trace(read_trace(path))

    def test_out_of_order_trace_fails_validation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path)
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        events.append(dict(events[-1]))  # duplicate seq: not increasing
        path.write_text("\n".join(json.dumps(event) for event in events) + "\n")
        with pytest.raises(TraceError, match="does not increase"):
            summarize_trace(read_trace(path))
