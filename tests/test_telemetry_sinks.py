"""Sink and timing-primitive tests for the telemetry plane.

Sinks only serialise/store/forward finished event dicts; the timing
module is the one clock discipline shared by benchmarks and spans.
"""

import io
import json
import queue

from repro.telemetry import (
    JsonlSink,
    MemorySink,
    QueueSink,
    Sink,
    StderrProgressSink,
    Stopwatch,
    Telemetry,
    best_of_ns,
)
from repro.telemetry.timing import NULL_TIMER, phase_timer


def sample_event(**overrides):
    event = {"kind": "mark", "src": "chief", "seq": 0, "step": 0, "name": "m"}
    event.update(overrides)
    return event


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(sample_event(seq=0))
        sink.emit(sample_event(seq=1))
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_lazy_open_leaves_no_file_without_events(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.flush()
        sink.close()
        assert not path.exists()
        assert sink.path == path

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(sample_event())
        sink.close()
        assert path.exists()

    def test_truncates_previous_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("stale line from the previous run\n")
        sink = JsonlSink(path)
        sink.emit(sample_event())
        sink.close()
        assert len(path.read_text().splitlines()) == 1

    def test_flush_makes_partial_trace_readable(self, tmp_path):
        """A crashed run's trace must be readable up to its last flush."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(sample_event())
        sink.flush()
        assert json.loads(path.read_text())["kind"] == "mark"
        sink.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.emit(sample_event())
        sink.close()
        sink.close()


class TestMemorySink:
    def test_by_kind_and_named_filters(self):
        sink = MemorySink()
        sink.emit(sample_event(kind="span", name="round.server", dur_ns=5))
        sink.emit(sample_event(kind="counter", name="rounds", value=1, delta=1))
        sink.emit(sample_event(kind="span", name="round.cohort", dur_ns=7))
        assert len(sink.by_kind("span")) == 2
        assert len(sink.named("rounds")) == 1
        assert sink.by_kind("gauge") == []


class TestQueueSink:
    def test_batches_only_on_flush(self):
        channel = queue.Queue()
        sink = QueueSink(channel)
        sink.emit(sample_event(seq=0))
        sink.emit(sample_event(seq=1))
        assert channel.empty()  # per-round IPC is one token, not two
        sink.flush()
        batch = channel.get_nowait()
        assert [event["seq"] for event in batch] == [0, 1]

    def test_flush_of_empty_buffer_sends_nothing(self):
        channel = queue.Queue()
        QueueSink(channel).flush()
        assert channel.empty()

    def test_telemetry_flush_drains_through(self):
        channel = queue.Queue()
        telemetry = Telemetry(sinks=[QueueSink(channel)], src="shard:0")
        telemetry.mark("shard.start")
        telemetry.flush()
        (event,) = channel.get_nowait()
        assert event["src"] == "shard:0"


class TestStderrProgressSink:
    def test_rate_limits_ordinary_events(self):
        stream = io.StringIO()
        sink = StderrProgressSink(interval=3600.0, stream=stream)
        for seq in range(5):
            sink.emit(sample_event(seq=seq, step=seq))
        # One line at most within the interval.
        assert len(stream.getvalue().splitlines()) == 1

    def test_first_event_reports_on_a_fresh_clock(self, monkeypatch):
        """A monotonic clock may start near 0 (a freshly booted host)."""
        monkeypatch.setattr("repro.telemetry.sinks.time.monotonic", lambda: 1.0)
        stream = io.StringIO()
        StderrProgressSink(interval=3600.0, stream=stream).emit(sample_event())
        assert len(stream.getvalue().splitlines()) == 1

    def test_warnings_always_print(self):
        stream = io.StringIO()
        sink = StderrProgressSink(interval=3600.0, stream=stream)
        sink.emit(sample_event())
        sink.emit(
            sample_event(kind="warning", name="shard.departed", message="shard 1 died")
        )
        text = stream.getvalue()
        assert "shard.departed" in text
        assert "shard 1 died" in text


class TestBaseSinkContract:
    def test_flush_and_close_default_to_noops(self):
        class Recording(Sink):
            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        sink = Recording()
        sink.flush()
        sink.close()
        sink.emit(sample_event())
        assert len(sink.events) == 1


class TestTimingPrimitives:
    def test_best_of_ns_returns_positive_minimum(self):
        calls = []
        result = best_of_ns(lambda: calls.append(1), repeats=3)
        assert result > 0
        assert len(calls) == 4  # warm-up + 3 timed

    def test_best_of_ns_clamps_repeats(self):
        calls = []
        best_of_ns(lambda: calls.append(1), repeats=0)
        assert len(calls) == 2  # warm-up + at least one timed call

    def test_stopwatch_restart_and_read(self):
        watch = Stopwatch()
        first = watch.elapsed_ns()
        assert first >= 0
        watch.restart()
        assert watch.elapsed_seconds() < 60.0
        assert watch.elapsed_ns() <= watch.elapsed_ns()

    def test_phase_timer_accumulates_laps_and_emits_once(self):
        sink = MemorySink()
        timer = phase_timer(Telemetry(sinks=[sink]))
        for _ in range(3):
            timer.restart()
            timer.lap("round.cohort")
            timer.lap("round.server")
        timer.emit(Telemetry(sinks=[sink]), rounds=3)
        assert [event["name"] for event in sink.events] == [
            "round.cohort",
            "round.server",
        ]
        assert all(event["attrs"] == {"rounds": 3} for event in sink.events)
        assert all(event["dur_ns"] >= 0 for event in sink.events)
        timer.emit(Telemetry(sinks=[sink]))
        assert len(sink.events) == 2  # emit cleared the laps

    def test_phase_timer_without_telemetry_is_the_null_timer(self):
        timer = phase_timer(None)
        assert timer is NULL_TIMER
        timer.restart()
        timer.lap("round.cohort")
        timer.emit(None)  # never touches its telemetry argument
