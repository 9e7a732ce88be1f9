"""The :class:`Telemetry` handle: one source's events and metrics.

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
``step``, counters and gauges, and sink list.
"""

from __future__ import annotations

import time

from repro.exceptions import ConfigurationError
from repro.telemetry.events import TRACE_SCHEMA

__all__ = ["Telemetry"]


class Telemetry:
    """One source's handle into the telemetry plane.

    Construct with the sinks that should receive this source's events
    and a ``src`` tag (``"chief"`` by default; shards use
    ``"shard:<id>"``).  All emission goes through :meth:`_emit`, which
    stamps ``src``/``seq``/``step`` so every event satisfies the trace
    schema's per-source monotonicity invariants by construction.

    A metric name is a counter (cumulative, never decreasing) or a gauge
    (last write wins), never both: reusing a name as the other kind
    would silently fork its meaning, so it is a configuration error.
    """

    def __init__(self, sinks=(), src: str = "chief"):
        self._sinks = list(sinks)
        self._src = str(src)
        self._seq = 0
        self._step = 0
        self._counters: dict[str, int] = {}
        self._gauges: dict = {}
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
    def counters(self) -> dict[str, int]:
        """Every counter's cumulative value, sorted by name."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    @property
    def gauges(self) -> dict:
        """Every gauge's latest value, sorted by name."""
        return {name: self._gauges[name] for name in sorted(self._gauges)}

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

    def span_ns(self, name: str, dur_ns: int, **attrs) -> None:
        """Emit a measured span; round paths call it through a
        :class:`~repro.telemetry.timing.PhaseTimer`."""
        event_fields = {"name": name, "dur_ns": int(dur_ns)}
        if attrs:
            event_fields["attrs"] = attrs
        self._emit("span", **event_fields)

    def counter(self, name: str, delta: int = 1, **attrs) -> None:
        """Increment counter ``name`` and emit its new cumulative value."""
        if name in self._gauges:
            raise ConfigurationError(f"metric {name!r} is already registered as a gauge")
        if delta < 0:
            raise ConfigurationError(f"counter {name!r} cannot decrease (delta={delta})")
        value = self._counters[name] = self._counters.get(name, 0) + delta
        fields = {"name": name, "value": value, "delta": int(delta)}
        if attrs:
            fields["attrs"] = attrs
        self._emit("counter", **fields)

    def gauge(self, name: str, value, **attrs) -> None:
        """Set gauge ``name`` and emit the new value."""
        if name in self._counters:
            raise ConfigurationError(f"metric {name!r} is already registered as a counter")
        self._gauges[name] = value
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
        """Close the trace: snapshot the metrics and emit ``run_end``.

        Derives the ``rounds_per_sec`` gauge from the ``rounds``
        counter and the elapsed wall time since :meth:`open_run`.
        """
        elapsed_ns = 0
        if self._run_started_ns is not None:
            elapsed_ns = time.perf_counter_ns() - self._run_started_ns
        rounds = self._counters.get("rounds", 0)
        if rounds and elapsed_ns > 0:
            self.gauge("rounds_per_sec", rounds / (elapsed_ns / 1e9))
        self._emit(
            "run_end",
            counters=self.counters,
            gauges=self.gauges,
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
