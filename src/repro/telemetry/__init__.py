"""Unified telemetry plane: structured tracing, metrics, and sinks.

Zero-dependency observability for every execution surface of the
reproduction — the in-process :class:`~repro.distributed.cluster.Cluster`,
the fused :class:`~repro.distributed.engine.RoundEngine`, the
multiprocess runtime, the event-driven simulator, and campaign cells —
all emitting one schema-versioned event stream
(:data:`~repro.telemetry.events.TRACE_SCHEMA`).  One
:class:`~repro.telemetry.core.Telemetry` handle per source (the chief,
or one shard) emits that source's events and keeps its counters and
gauges, read back as ``Telemetry.counters`` and ``Telemetry.gauges``.

The contract that makes telemetry safe to leave wired in everywhere:

* **disabled is nearly free** — every round path, shards included,
  times its phases through one
  :class:`~repro.telemetry.timing.PhaseTimer`; without a handle that
  is the no-op :data:`~repro.telemetry.timing.NULL_TIMER`, about 25 ns
  per phase and no event built (pinned by the off-path overhead test);
* **enabled is bit-identical** — no telemetry code path ever draws
  from an RNG stream, so traces observe training without perturbing it
  (pinned by the golden-trace replay and the differential suites).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.events import EVENT_KINDS, TRACE_SCHEMA, TraceError, validate_events
from repro.telemetry.sinks import JsonlSink, MemorySink, Sink
from repro.telemetry.trace import read_trace, render_trace_summary, summarize_trace

__all__ = [
    "EVENT_KINDS",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceError",
    "read_trace",
    "render_trace_summary",
    "summarize_trace",
    "validate_events",
]
