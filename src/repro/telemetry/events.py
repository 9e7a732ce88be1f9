"""Event model and schema validation for the telemetry plane.

A *trace* is an ordered sequence of flat, JSON-serialisable event
dicts.  Every event carries:

* ``kind`` — one of :data:`EVENT_KINDS`;
* ``src`` — the emitting actor (``"chief"`` or ``"shard:<id>"``);
* ``seq`` — a per-``src`` sequence number, strictly increasing;
* ``step`` — the training round the actor was in when it emitted
  (0 before the first round).

Kind-specific fields:

* ``run_start`` — ``schema`` (:data:`TRACE_SCHEMA`) plus a ``meta``
  dict describing the run (gar, attack, backend, ...);
* ``span`` — ``name`` and ``dur_ns`` (>= 0); block-path spans carry a
  ``rounds`` attribute covering several rounds in one event;
* ``counter`` — ``name``, cumulative ``value``, and the ``delta`` that
  produced it;
* ``gauge`` — ``name`` and the new ``value``;
* ``warning`` — ``name`` and a human-readable ``message`` (structured
  detail goes in ``attrs``);
* ``mark`` — a named point event (shard start/stop, run milestones);
* ``run_end`` — final ``counters``/``gauges`` snapshots and the run's
  ``elapsed_ns``.

Optional structured detail rides in an ``attrs`` sub-dict so it can
never collide with the core fields above.

The merged multiprocess trace interleaves chief and shard events in
drain order, which is causal per source but not globally: validation
therefore requires monotonicity (``seq`` strictly increasing, ``step``
non-decreasing) *per source*, never across sources.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["TRACE_SCHEMA", "EVENT_KINDS", "TraceError", "validate_events"]

#: Schema tag stamped into every ``run_start`` event (and therefore the
#: first line of every JSONL trace file).  Bump on incompatible changes.
TRACE_SCHEMA = "repro.trace/1"

#: The closed vocabulary of event kinds.
EVENT_KINDS = ("run_start", "span", "counter", "gauge", "warning", "mark", "run_end")

#: Fields every event must carry, whatever its kind.
_CORE_FIELDS = ("kind", "src", "seq", "step")

#: Kind-specific required fields (beyond the core fields).
_REQUIRED = {
    "run_start": ("schema",),
    "span": ("name", "dur_ns"),
    "counter": ("name", "value", "delta"),
    "gauge": ("name", "value"),
    "warning": ("name", "message"),
    "mark": ("name",),
    "run_end": ("counters", "gauges", "elapsed_ns"),
}


class TraceError(ConfigurationError):
    """A trace violated the event schema or its ordering invariants."""


def _fail(index: int, event: object, reason: str) -> None:
    raise TraceError(f"trace event {index}: {reason} (event: {event!r})")


def _is_count(value: object) -> bool:
    """A non-negative integer; JSON's ``true``/``false`` are not one
    (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_events(events) -> list[dict]:
    """Check a trace against the schema; returns the events on success.

    Raises :class:`TraceError` on the first violation: unknown kind,
    missing field, wrong schema tag, a ``seq``, ``step`` or ``dur_ns``
    that is not a non-negative integer (a boolean is not), a ``seq``
    that fails to strictly increase within its source, or a ``step``
    that goes backwards within its source.  The CLI's ``trace summarize`` and the CI
    telemetry-smoke job both route through here, so an out-of-order or
    truncated trace fails loudly instead of summarising garbage.
    """
    events = list(events)
    if not events:
        raise TraceError("trace is empty")
    first = events[0]
    if not isinstance(first, dict) or first.get("kind") != "run_start":
        _fail(0, first, "trace must open with a run_start event")
    if first.get("schema") != TRACE_SCHEMA:
        _fail(0, first, f"unsupported trace schema {first.get('schema')!r} (expected {TRACE_SCHEMA!r})")
    last_seq: dict[str, int] = {}
    last_step: dict[str, int] = {}
    run_starts = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(index, event, "event is not an object")
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            _fail(index, event, f"unknown event kind {kind!r}")
        for field in _CORE_FIELDS + _REQUIRED[kind]:
            if field not in event:
                _fail(index, event, f"missing required field {field!r}")
        if kind == "run_start":
            run_starts += 1
            if run_starts > 1:
                _fail(index, event, "duplicate run_start")
        src = event["src"]
        if not isinstance(src, str) or not src:
            _fail(index, event, f"src must be a non-empty string, got {src!r}")
        seq = event["seq"]
        if not _is_count(seq):
            _fail(index, event, f"seq must be a non-negative integer, got {seq!r}")
        if src in last_seq and seq <= last_seq[src]:
            _fail(index, event, f"seq {seq} does not increase after {last_seq[src]} for src {src!r}")
        last_seq[src] = seq
        step = event["step"]
        if not _is_count(step):
            _fail(index, event, f"step must be a non-negative integer, got {step!r}")
        if step < last_step.get(src, 0):
            _fail(index, event, f"step {step} goes backwards after {last_step[src]} for src {src!r}")
        last_step[src] = step
        if kind == "span":
            dur = event["dur_ns"]
            if not _is_count(dur):
                _fail(index, event, f"dur_ns must be a non-negative integer, got {dur!r}")
    return events
