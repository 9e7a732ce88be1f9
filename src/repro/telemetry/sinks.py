"""Pluggable event sinks for the telemetry plane.

A sink receives finished event dicts (see
:mod:`repro.telemetry.events`) and stores them.  Two are provided:

* :class:`JsonlSink` — one schema-versioned JSONL file per run, the
  durable trace the CLI's ``trace summarize`` reads back;
* :class:`MemorySink` — an in-process list, for tests and benchmarks,
  and the buffer in which a runtime shard collects the events it ships
  to the chief with each reply.

:class:`Sink` is the contract both implement, and what a test
substitutes its own fakes for.

Sinks never inspect or mutate events beyond serialisation, and none of
them touches an RNG stream — a sink can therefore never perturb
training results.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["Sink", "JsonlSink", "MemorySink"]


class Sink:
    """Base sink: the three-method contract (`emit`, `flush`, `close`)."""

    def emit(self, event: dict) -> None:
        """Receive one finished event dict."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push any buffered events to their destination (default no-op)."""

    def close(self) -> None:
        """Flush and release resources; emitting afterwards is an error."""
        self.flush()


class JsonlSink(Sink):
    """Write events to a JSONL file, one JSON object per line.

    One file per run: the file is truncated when the first event
    arrives (opened lazily, so a run that never emits leaves no file
    behind) and parent directories are created on demand.  Writes stay
    unbuffered-ish (flushed on demand), so a crashed run's trace is
    readable up to its final event.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._handle = None

    @property
    def path(self) -> Path:
        """Where the trace is (or will be) written."""
        return self._path

    def emit(self, event: dict) -> None:
        if self._handle is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "w", encoding="utf-8")
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.flush()
            handle.close()


class MemorySink(Sink):
    """Collect events in a list (`.events`) — the test double."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> list[dict]:
        """Every collected event of the given kind, in emission order."""
        return [event for event in self.events if event.get("kind") == kind]

    def named(self, name: str) -> list[dict]:
        """Every collected event with the given ``name`` field."""
        return [event for event in self.events if event.get("name") == name]
