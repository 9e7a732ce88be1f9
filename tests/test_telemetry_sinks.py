"""Sink and timing-primitive tests for the telemetry plane.

Sinks only serialise/store/forward finished event dicts; the timing
module is the one clock every round path's phase spans are timed with.
"""

import json

from repro.telemetry import JsonlSink, MemorySink, Sink, Telemetry
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
