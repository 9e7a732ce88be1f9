"""Unit tests for the telemetry core: handle, metrics, event schema.

The :class:`~repro.telemetry.Telemetry` handle must stamp every event
with its source's monotonic ``seq``/``step`` so traces satisfy the
schema invariants *by construction*, and
:func:`~repro.telemetry.validate_events` must reject every malformed
shape the multiprocess merge could conceivably produce.
"""

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.telemetry import (
    EVENT_KINDS,
    TRACE_SCHEMA,
    MemorySink,
    Telemetry,
    TraceError,
    validate_events,
)


def make_telemetry(src="chief"):
    sink = MemorySink()
    return Telemetry(sinks=[sink], src=src), sink


class TestMetricsRegistry:
    """The handle's metrics: its counters and gauges."""

    def test_counter_accumulates(self):
        telemetry, sink = make_telemetry()
        telemetry.counter("rounds")
        telemetry.counter("rounds", 4)
        assert [event["value"] for event in sink.events] == [1, 5]
        assert telemetry.counters == {"rounds": 5}

    def test_counter_rejects_decrease(self):
        telemetry, sink = make_telemetry()
        telemetry.counter("rounds", 2)
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            telemetry.counter("rounds", -1)
        assert telemetry.counters == {"rounds": 2}
        assert len(sink.events) == 1  # the refused delta emitted nothing

    def test_gauge_last_write_wins(self):
        telemetry, _ = make_telemetry()
        assert telemetry.gauges == {}
        telemetry.gauge("epsilon", 0.5)
        telemetry.gauge("epsilon", 1.5)
        assert telemetry.gauges == {"epsilon": 1.5}

    def test_registry_rejects_type_fork(self):
        telemetry, sink = make_telemetry()
        telemetry.counter("rounds")
        telemetry.gauge("rate", 1.0)
        with pytest.raises(ConfigurationError, match="already registered"):
            telemetry.gauge("rounds", 2.0)
        with pytest.raises(ConfigurationError, match="already registered"):
            telemetry.counter("rate")
        assert (telemetry.counters, telemetry.gauges) == ({"rounds": 1}, {"rate": 1.0})
        assert len(sink.events) == 2

    def test_snapshots_are_sorted(self):
        telemetry, _ = make_telemetry()
        telemetry.counter("b", 2)
        telemetry.counter("a", 1)
        telemetry.gauge("z", 9)
        telemetry.gauge("y", 8)
        assert list(telemetry.counters.items()) == [("a", 1), ("b", 2)]
        assert list(telemetry.gauges.items()) == [("y", 8), ("z", 9)]


class TestTelemetryEmission:
    def test_events_carry_src_seq_step(self):
        telemetry, sink = make_telemetry(src="shard:3")
        telemetry.mark("one")
        telemetry.set_step(5)
        telemetry.mark("two")
        first, second = sink.events
        assert first["src"] == second["src"] == "shard:3"
        assert (first["seq"], second["seq"]) == (0, 1)
        assert (first["step"], second["step"]) == (0, 5)

    def test_span_ns_emits_preaccumulated_duration(self):
        telemetry, sink = make_telemetry()
        telemetry.span_ns("round.block", 12345, rounds=64)
        (event,) = sink.events
        assert event["dur_ns"] == 12345
        assert event["attrs"] == {"rounds": 64}

    def test_counter_emits_cumulative_value(self):
        telemetry, sink = make_telemetry()
        telemetry.counter("network.dropped")
        telemetry.counter("network.dropped", 3)
        events = sink.by_kind("counter")
        assert [event["value"] for event in events] == [1, 4]
        assert [event["delta"] for event in events] == [1, 3]
        assert telemetry.counters == {"network.dropped": 4}

    def test_gauge_and_warning_and_mark_fields(self):
        telemetry, sink = make_telemetry()
        telemetry.gauge("privacy.epsilon_spent", 0.25)
        telemetry.warning("shard.departed", "shard 1 died", exit_code=23)
        telemetry.mark("shard.start", pid=99)
        gauge, warning, mark = sink.events
        assert (gauge["name"], gauge["value"]) == ("privacy.epsilon_spent", 0.25)
        assert warning["message"] == "shard 1 died"
        assert warning["attrs"] == {"exit_code": 23}
        assert mark["attrs"] == {"pid": 99}

    def test_forward_preserves_foreign_identity(self):
        shard, shard_sink = make_telemetry(src="shard:0")
        shard.mark("shard.start")
        chief, chief_sink = make_telemetry(src="chief")
        chief.mark("before")
        for event in shard_sink.events:
            chief.forward(event)
        forwarded = chief_sink.events[-1]
        assert forwarded["src"] == "shard:0"
        assert forwarded["seq"] == 0
        # Forwarding must not consume the chief's own seq numbers.
        chief.mark("after")
        assert chief_sink.events[-1]["seq"] == 1


class TestRunLifecycle:
    def test_open_close_produce_valid_trace(self):
        telemetry, sink = make_telemetry()
        telemetry.open_run(mode="train", gar="krum")
        telemetry.set_step(1)
        telemetry.span_ns("round.server", 7)
        telemetry.counter("rounds")
        telemetry.close_run()
        events = validate_events(sink.events)
        assert events[0]["kind"] == "run_start"
        assert events[0]["schema"] == TRACE_SCHEMA
        assert events[0]["meta"] == {"mode": "train", "gar": "krum"}
        assert events[-1]["kind"] == "run_end"
        assert events[-1]["counters"] == {"rounds": 1}
        assert events[-1]["elapsed_ns"] > 0

    def test_close_run_derives_rounds_per_sec(self):
        telemetry, sink = make_telemetry()
        telemetry.open_run()
        telemetry.counter("rounds", 10)
        telemetry.close_run()
        (gauge,) = sink.by_kind("gauge")
        assert gauge["name"] == "rounds_per_sec"
        assert gauge["value"] > 0

    def test_no_rate_gauge_without_rounds(self):
        telemetry, sink = make_telemetry()
        telemetry.open_run()
        telemetry.close_run()
        assert sink.by_kind("gauge") == []


class TestValidateEvents:
    def valid_trace(self):
        telemetry, sink = make_telemetry()
        telemetry.open_run(mode="train")
        telemetry.set_step(1)
        telemetry.counter("rounds")
        telemetry.close_run()
        return sink.events

    def test_accepts_valid_trace_and_returns_events(self):
        events = self.valid_trace()
        assert validate_events(events) == events

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError, match="empty"):
            validate_events([])

    def test_requires_run_start_first(self):
        events = self.valid_trace()
        with pytest.raises(TraceError, match="must open with a run_start"):
            validate_events(events[1:])

    def test_rejects_wrong_schema(self):
        events = self.valid_trace()
        events[0] = dict(events[0], schema="repro.trace/999")
        with pytest.raises(TraceError, match="unsupported trace schema"):
            validate_events(events)

    def test_rejects_unknown_kind(self):
        events = self.valid_trace()
        events.append({"kind": "bogus", "src": "chief", "seq": 99, "step": 1})
        with pytest.raises(TraceError, match="unknown event kind"):
            validate_events(events)

    def test_rejects_missing_required_field(self):
        events = self.valid_trace()
        span = {"kind": "span", "src": "chief", "seq": 99, "step": 1, "name": "x"}
        events.append(span)  # no dur_ns
        with pytest.raises(TraceError, match="missing required field 'dur_ns'"):
            validate_events(events)

    def test_rejects_duplicate_run_start(self):
        events = self.valid_trace()
        events.append(dict(events[0], seq=99))
        with pytest.raises(TraceError, match="duplicate run_start"):
            validate_events(events)

    def test_rejects_nonincreasing_seq_within_source(self):
        events = self.valid_trace()
        events.append(dict(events[-1], seq=events[-1]["seq"]))
        with pytest.raises(TraceError, match="does not increase"):
            validate_events(events)

    def test_rejects_step_going_backwards_within_source(self):
        events = self.valid_trace()
        events.append(
            {"kind": "mark", "src": "chief", "seq": 99, "step": 0, "name": "late"}
        )
        with pytest.raises(TraceError, match="goes backwards"):
            validate_events(events)

    def test_sources_are_ordered_independently(self):
        """The merged multiprocess trace interleaves sources: per-source
        monotonicity must hold, cross-source ordering must not be
        required."""
        events = self.valid_trace()
        events.append(
            {"kind": "mark", "src": "shard:0", "seq": 5, "step": 3, "name": "a"}
        )
        events.append(
            {"kind": "mark", "src": "shard:1", "seq": 0, "step": 1, "name": "b"}
        )
        events.append(
            {"kind": "mark", "src": "shard:0", "seq": 6, "step": 3, "name": "c"}
        )
        validate_events(events)

    def test_rejects_negative_span_duration(self):
        events = self.valid_trace()
        events.append(
            {
                "kind": "span", "src": "chief", "seq": 99, "step": 1,
                "name": "x", "dur_ns": -1,
            }
        )
        with pytest.raises(TraceError, match="dur_ns"):
            validate_events(events)

    def test_rejects_bad_src_and_seq_types(self):
        events = self.valid_trace()
        events.append({"kind": "mark", "src": "", "seq": 99, "step": 1, "name": "x"})
        with pytest.raises(TraceError, match="src must be"):
            validate_events(events)
        events[-1] = {"kind": "mark", "src": "chief", "seq": "9", "step": 1, "name": "x"}
        with pytest.raises(TraceError, match="seq must be"):
            validate_events(events)

    @pytest.mark.parametrize("field", ["seq", "step", "dur_ns"])
    def test_rejects_boolean_counts(self, field):
        """JSON's true is no count, although bool subclasses int."""
        telemetry, sink = make_telemetry()
        telemetry.open_run()
        telemetry.set_step(1)
        telemetry.span_ns("round.cohort", 5)
        telemetry.close_run()
        events = sink.events
        validate_events(events)
        (span,) = [event for event in events if event["kind"] == "span"]
        span[field] = True  # equals 1, a value the field may hold
        with pytest.raises(TraceError, match=f"{field} must be a non-negative integer"):
            validate_events(events)

    def test_trace_error_is_a_repro_error(self):
        """The CLI maps ReproError to exit code 2; bad traces must ride
        that path."""
        assert issubclass(TraceError, ConfigurationError)
        assert issubclass(TraceError, ReproError)

    def test_event_kinds_closed_vocabulary(self):
        assert EVENT_KINDS == (
            "run_start", "span", "counter", "gauge", "warning", "mark", "run_end"
        )
