"""Unified telemetry plane: structured tracing, metrics, and sinks.

Zero-dependency observability for every execution surface of the
reproduction — the in-process :class:`~repro.distributed.cluster.Cluster`,
the fused :class:`~repro.distributed.engine.RoundEngine`, the
multiprocess runtime, the event-driven simulator, and campaign cells —
all emitting one schema-versioned event stream
(:data:`~repro.telemetry.events.TRACE_SCHEMA`).

The contract that makes telemetry safe to leave wired in everywhere:

* **disabled is nearly free** — every round path times its phases
  through one :class:`~repro.telemetry.timing.PhaseTimer`; without a
  handle that is the no-op :data:`~repro.telemetry.timing.NULL_TIMER`,
  about 25 ns per phase and no event built (pinned by the off-path
  overhead test);
* **enabled is bit-identical** — no telemetry code path ever draws
  from an RNG stream, so traces observe training without perturbing it
  (pinned by the golden-trace replay and the differential suites).
"""

from repro.telemetry.core import Counter, Gauge, MetricsRegistry, Telemetry
from repro.telemetry.events import EVENT_KINDS, TRACE_SCHEMA, TraceError, validate_events
from repro.telemetry.sinks import JsonlSink, MemorySink, Sink, StderrProgressSink
from repro.telemetry.trace import read_trace, render_trace_summary, summarize_trace

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "Sink",
    "StderrProgressSink",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceError",
    "read_trace",
    "render_trace_summary",
    "summarize_trace",
    "validate_events",
]
