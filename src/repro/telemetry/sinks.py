"""Pluggable event sinks for the telemetry plane.

A sink receives finished event dicts (see
:mod:`repro.telemetry.events`) and stores, forwards, or renders them.
Four are provided:

* :class:`JsonlSink` — one schema-versioned JSONL file per run, the
  durable trace the CLI's ``trace summarize`` reads back;
* :class:`MemorySink` — an in-process list, for tests and benchmarks;
* :class:`StderrProgressSink` — a rate-limited one-line progress
  reporter for long runs;
* :class:`QueueSink` — batches events onto a ``multiprocessing`` queue,
  the shard side of the runtime's telemetry merge.

Sinks never inspect or mutate events beyond serialisation, and none of
them touches an RNG stream — a sink can therefore never perturb
training results.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

__all__ = ["Sink", "JsonlSink", "MemorySink", "StderrProgressSink", "QueueSink"]


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


class StderrProgressSink(Sink):
    """Periodic one-line progress reports on stderr.

    Prints at most one line per ``interval`` seconds (wall clock),
    summarising the latest step seen; warnings always print
    immediately.  Meant for long interactive runs — it renders, it
    never stores.
    """

    def __init__(self, interval: float = 5.0, stream=None):
        self._interval = float(interval)
        self._stream = stream if stream is not None else sys.stderr
        # The monotonic clock's origin is arbitrary (often boot), so the
        # first event must report however small ``now`` is.
        self._last_report = float("-inf")

    def emit(self, event: dict) -> None:
        kind = event.get("kind")
        if kind == "warning":
            print(
                f"[telemetry] warning {event.get('name')}: {event.get('message')}",
                file=self._stream,
            )
            return
        now = time.monotonic()
        if now - self._last_report < self._interval:
            return
        self._last_report = now
        print(
            f"[telemetry] {event.get('src')} step {event.get('step')} ({kind})",
            file=self._stream,
        )


class QueueSink(Sink):
    """Buffer events and ship them in batches over a process queue.

    The multiprocess runtime's shard side: events accumulate locally
    and :meth:`flush` puts the whole batch (a plain list of dicts) on
    the queue in one call, so per-round IPC stays a single token.  The
    chief drains batches and forwards each event — with its original
    ``src`` and ``seq`` — into the merged run trace.
    """

    def __init__(self, queue):
        self._queue = queue
        self._buffer: list[dict] = []

    def emit(self, event: dict) -> None:
        self._buffer.append(event)

    def flush(self) -> None:
        if self._buffer:
            batch, self._buffer = self._buffer, []
            self._queue.put(batch)
