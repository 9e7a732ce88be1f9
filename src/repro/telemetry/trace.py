"""Reading and summarising JSONL run traces.

``read_trace`` loads a trace file strictly (any unparseable line is an
error), ``summarize_trace`` folds validated events into per-phase
totals and metric snapshots, and ``render_trace_summary`` turns that
summary into the flamegraph-style table behind
``repro trace summarize``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.events import TraceError, validate_events

__all__ = ["read_trace", "summarize_trace", "render_trace_summary"]


def read_trace(path) -> list[dict]:
    """The events of the JSONL trace at ``path``, in file order.

    Blank lines are ignored; any other unparseable line raises
    :class:`~repro.telemetry.events.TraceError` naming the line number
    — a truncated or corrupted trace must fail loudly, not summarise
    partially.  Lines are parsed as they are read, so the file's text
    is never held whole next to its events.
    """
    path = Path(path)
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {path}") from None
    events = []
    with handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{number}: unparseable trace line ({error})"
                ) from None
            events.append(event)
    return events


def summarize_trace(events) -> dict:
    """Fold a validated event sequence into a summary dict.

    Validates first (see
    :func:`~repro.telemetry.events.validate_events`), then aggregates:

    * ``phases`` — per span name: event count, rounds covered, total
      nanoseconds, and share of the summed span time;
    * ``counters`` — final cumulative value per name, summed across
      sources (each source's registry is independent);
    * ``gauges`` — last observed value per name;
    * ``warnings`` — every warning event, in trace order;
    * plus ``srcs``, ``steps`` (max round seen), ``events`` (total),
      ``meta`` (from ``run_start``) and ``elapsed_ns`` (from
      ``run_end``, when present).
    """
    events = validate_events(events)
    phases: dict[str, dict] = {}
    counter_finals: dict[tuple[str, str], int] = {}
    gauges: dict[str, object] = {}
    warnings: list[dict] = []
    srcs: set[str] = set()
    max_step = 0
    meta: dict = {}
    elapsed_ns = None
    for event in events:
        kind = event["kind"]
        srcs.add(event["src"])
        max_step = max(max_step, event["step"])
        if kind == "span":
            entry = phases.setdefault(event["name"], {"count": 0, "rounds": 0, "total_ns": 0})
            entry["count"] += 1
            entry["rounds"] += int(event.get("attrs", {}).get("rounds", 1))
            entry["total_ns"] += event["dur_ns"]
        elif kind == "counter":
            counter_finals[(event["src"], event["name"])] = event["value"]
        elif kind == "gauge":
            gauges[event["name"]] = event["value"]
        elif kind == "warning":
            warnings.append(event)
        elif kind == "run_start":
            meta = dict(event.get("meta", {}))
        elif kind == "run_end":
            elapsed_ns = event["elapsed_ns"]
            for name, value in event["counters"].items():
                key = (event["src"], name)
                counter_finals[key] = max(counter_finals.get(key, 0), value)
            for name, value in event["gauges"].items():
                if value is not None:
                    gauges.setdefault(name, value)
    counters: dict[str, int] = {}
    for (_, name), value in counter_finals.items():
        counters[name] = counters.get(name, 0) + value
    total_span_ns = sum(entry["total_ns"] for entry in phases.values())
    for entry in phases.values():
        entry["share"] = entry["total_ns"] / total_span_ns if total_span_ns else 0.0
    return {
        "events": len(events),
        "srcs": sorted(srcs),
        "steps": max_step,
        "meta": meta,
        "elapsed_ns": elapsed_ns,
        "phases": {name: phases[name] for name in sorted(phases)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "warnings": warnings,
    }


def _format_ms(nanoseconds: int) -> str:
    return f"{nanoseconds / 1e6:.2f}"


def render_trace_summary(summary: dict, bar_width: int = 28) -> str:
    """The human-readable phase/counter report for a trace summary.

    Phases sort by total time descending with a proportional ``#`` bar
    (the flamegraph-style view); counters, gauges, and warnings follow.
    """
    lines = []
    srcs = summary["srcs"]
    lines.append(
        f"trace: {summary['events']} events from {len(srcs)} source(s) "
        f"({', '.join(srcs)}), {summary['steps']} step(s)"
    )
    meta = summary.get("meta") or {}
    if meta:
        described = ", ".join(f"{key}={meta[key]}" for key in sorted(meta))
        lines.append(f"run: {described}")
    if summary.get("elapsed_ns"):
        lines.append(f"elapsed: {summary['elapsed_ns'] / 1e9:.3f} s")
    phases = summary["phases"]
    if phases:
        ordered = sorted(phases.items(), key=lambda item: item[1]["total_ns"], reverse=True)
        name_width = max(len("phase"), max(len(name) for name, _ in ordered))
        lines.append("")
        lines.append(
            f"{'phase':<{name_width}}  {'count':>7}  {'rounds':>7}  "
            f"{'total ms':>10}  {'share':>6}"
        )
        for name, entry in ordered:
            bar = "#" * max(1, round(entry["share"] * bar_width)) if entry["total_ns"] else ""
            lines.append(
                f"{name:<{name_width}}  {entry['count']:>7}  {entry['rounds']:>7}  "
                f"{_format_ms(entry['total_ns']):>10}  {entry['share']:>6.1%}  {bar}"
            )
    counters = summary["counters"]
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name} = {value}")
    gauges = summary["gauges"]
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name, value in gauges.items():
            rendered = f"{value:.6g}" if isinstance(value, float) else repr(value)
            lines.append(f"  {name} = {rendered}")
    warnings = summary["warnings"]
    if warnings:
        lines.append("")
        lines.append(f"warnings ({len(warnings)}):")
        for event in warnings:
            lines.append(
                f"  [{event['src']} step {event['step']}] {event['name']}: {event['message']}"
            )
    return "\n".join(lines)
