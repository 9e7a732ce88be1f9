"""The :class:`Telemetry` handle and typed :class:`MetricsRegistry`.

Design constraints, in order:

1. **Bit-identity** — telemetry never touches an RNG stream; it only
   observes values the training path already computed.
2. **Null by default** — round paths hold a plain ``_telemetry = None``
   attribute and time their phases with the no-op
   :data:`~repro.telemetry.timing.NULL_TIMER`; nothing here is called
   until a handle is actually installed (pinned by the off-path
   overhead test).
3. **Zero dependencies** — stdlib + the event dicts of
   :mod:`repro.telemetry.events` only.

One :class:`Telemetry` instance represents one *source* (the chief, or
one shard) and owns that source's monotonic ``seq`` counter, current
``step``, metrics registry, and sink list.
"""

from __future__ import annotations

import time

from repro.exceptions import ConfigurationError
from repro.telemetry.events import TRACE_SCHEMA

__all__ = ["Counter", "Gauge", "MetricsRegistry", "Telemetry"]


class Counter:
    """A monotonically increasing count (messages dropped, rounds, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, delta: int = 1) -> int:
        """Increase by ``delta`` (>= 0); returns the new cumulative value."""
        if delta < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (delta={delta})")
        self.value += delta
        return self.value


class Gauge:
    """A last-write-wins measurement (epsilon spent, rounds/sec, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def set(self, value) -> None:
        """Record the latest value."""
        self.value = value


class MetricsRegistry:
    """Named, typed metric instruments for one telemetry source.

    A name is bound to its instrument type on first use; asking for the
    same name as a different type is a configuration error (it would
    silently fork the metric's meaning).
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if name in self._gauges:
            raise ConfigurationError(f"metric {name!r} is already registered as a gauge")
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if name in self._counters:
            raise ConfigurationError(f"metric {name!r} is already registered as a counter")
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def counter_values(self) -> dict[str, int]:
        """Snapshot of every counter's cumulative value, sorted by name."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def gauge_values(self) -> dict:
        """Snapshot of every gauge's latest value, sorted by name."""
        return {name: self._gauges[name].value for name in sorted(self._gauges)}


class _Span(object):
    """Context manager timing one named phase; emits on exit."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict | None):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        duration = time.perf_counter_ns() - self._start
        self._telemetry.span_ns(self._name, duration, **(self._attrs or {}))


class Telemetry:
    """One source's handle into the telemetry plane.

    Construct with the sinks that should receive this source's events
    and a ``src`` tag (``"chief"`` by default; shards use
    ``"shard:<id>"``).  All emission goes through :meth:`_emit`, which
    stamps ``src``/``seq``/``step`` so every event satisfies the trace
    schema's per-source monotonicity invariants by construction.
    """

    def __init__(self, sinks=(), src: str = "chief", metrics: MetricsRegistry | None = None):
        self._sinks = list(sinks)
        self._src = str(src)
        self._seq = 0
        self._step = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._run_started_ns = None

    @property
    def src(self) -> str:
        """This source's tag, stamped into every event it emits."""
        return self._src

    @property
    def sinks(self) -> list:
        """The sinks receiving this source's events."""
        return list(self._sinks)

    @property
    def step(self) -> int:
        """The training round currently stamped into emitted events."""
        return self._step

    def set_step(self, step: int) -> None:
        """Advance the round stamp (steps never go backwards per source)."""
        self._step = int(step)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> dict:
        event = {"kind": kind, "src": self._src, "seq": self._seq, "step": self._step}
        self._seq += 1
        event.update(fields)
        for sink in self._sinks:
            sink.emit(event)
        return event

    def forward(self, event: dict) -> None:
        """Pass a foreign source's finished event through to the sinks.

        The chief uses this to merge drained shard events into the run
        trace; the event keeps its original ``src`` and ``seq`` so the
        per-source ordering invariants survive the merge.
        """
        for sink in self._sinks:
            sink.emit(event)

    def span(self, name: str, **attrs) -> _Span:
        """Context manager timing the enclosed block as span ``name``."""
        return _Span(self, name, attrs or None)

    def span_ns(self, name: str, dur_ns: int, **attrs) -> None:
        """Emit an already-measured span (block paths accumulate first)."""
        event_fields = {"name": name, "dur_ns": int(dur_ns)}
        if attrs:
            event_fields["attrs"] = attrs
        self._emit("span", **event_fields)

    def counter(self, name: str, delta: int = 1, **attrs) -> None:
        """Increment counter ``name`` and emit its new cumulative value."""
        value = self.metrics.counter(name).add(delta)
        fields = {"name": name, "value": value, "delta": int(delta)}
        if attrs:
            fields["attrs"] = attrs
        self._emit("counter", **fields)

    def gauge(self, name: str, value, **attrs) -> None:
        """Set gauge ``name`` and emit the new value."""
        self.metrics.gauge(name).set(value)
        fields = {"name": name, "value": value}
        if attrs:
            fields["attrs"] = attrs
        self._emit("gauge", **fields)

    def warning(self, name: str, message: str, **attrs) -> None:
        """Emit a structured warning (shard death, timeout, ...)."""
        fields = {"name": name, "message": str(message)}
        if attrs:
            fields["attrs"] = attrs
        self._emit("warning", **fields)

    def mark(self, name: str, **attrs) -> None:
        """Emit a named point event (milestones, shard start/stop)."""
        fields = {"name": name}
        if attrs:
            fields["attrs"] = attrs
        self._emit("mark", **fields)

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------

    def open_run(self, **meta) -> None:
        """Open the trace: emit the schema-stamped ``run_start`` event."""
        self._run_started_ns = time.perf_counter_ns()
        self._emit("run_start", schema=TRACE_SCHEMA, meta=meta)

    def close_run(self) -> None:
        """Close the trace: snapshot metrics and emit ``run_end``.

        Derives the ``rounds_per_sec`` gauge from the ``rounds``
        counter and the elapsed wall time since :meth:`open_run`.
        """
        elapsed_ns = 0
        if self._run_started_ns is not None:
            elapsed_ns = time.perf_counter_ns() - self._run_started_ns
        rounds = self.metrics.counter_values().get("rounds", 0)
        if rounds and elapsed_ns > 0:
            self.gauge("rounds_per_sec", rounds / (elapsed_ns / 1e9))
        self._emit(
            "run_end",
            counters=self.metrics.counter_values(),
            gauges=self.metrics.gauge_values(),
            elapsed_ns=int(elapsed_ns),
        )

    def flush(self) -> None:
        """Flush every sink."""
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self._sinks:
            sink.close()
