"""Shared timing primitives — one clock discipline for the repo.

Telemetry spans time with ``time.perf_counter_ns``: the monotonic,
highest-resolution clock the stdlib offers.  The end-to-end benchmark
(``benchmarks/e2e``) reads the same clock, so a benchmark row and a run
trace measure the same thing.

Every round path times its phases through one :class:`PhaseTimer`
obtained from :func:`phase_timer`.  With no telemetry installed that is
:data:`NULL_TIMER`, whose methods do nothing: the disabled path pays one
no-op call per phase (about 25 ns each on a 2-core x86-64 host, at
most about 0.2 µs per round).
"""

from __future__ import annotations

import time

__all__ = ["NULL_TIMER", "PhaseTimer", "phase_timer"]


class PhaseTimer:
    """Laps consecutive phases of a round and emits them as spans.

    ``lap(name)`` charges the time since the previous lap (or
    ``restart()``, or construction) to phase ``name``.  Laps of one name
    accumulate, so a block path laps every round and emits once per
    block.  ``emit(telemetry, **attrs)`` sends one span per phase, in
    first-lap order, and clears the laps.
    """

    __slots__ = ("_laps", "_start")

    def __init__(self):
        self._laps: dict[str, int] = {}
        self._start = time.perf_counter_ns()

    def restart(self) -> None:
        """Begin the next phase now (the time since the last lap is dropped)."""
        self._start = time.perf_counter_ns()

    def lap(self, name: str) -> None:
        """Charge the time since the last lap to phase ``name``."""
        now = time.perf_counter_ns()
        self._laps[name] = self._laps.get(name, 0) + now - self._start
        self._start = now

    def emit(self, telemetry, **attrs) -> None:
        """One ``telemetry`` span per lapped phase; then start empty."""
        for name, dur_ns in self._laps.items():
            telemetry.span_ns(name, dur_ns, **attrs)
        self._laps.clear()


class _NullTimer(PhaseTimer):
    """The :class:`PhaseTimer` of a round nobody observes: all no-ops."""

    __slots__ = ()

    def restart(self) -> None:
        pass

    def lap(self, name: str) -> None:
        pass

    def emit(self, telemetry, **attrs) -> None:
        pass


#: The shared timer of every unobserved round.
NULL_TIMER = _NullTimer()


def phase_timer(telemetry) -> PhaseTimer:
    """A fresh :class:`PhaseTimer`, or :data:`NULL_TIMER` when ``telemetry`` is None."""
    return NULL_TIMER if telemetry is None else PhaseTimer()
