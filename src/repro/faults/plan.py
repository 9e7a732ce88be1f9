"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` is a schedule of :class:`FaultEvent`\\ s — per
``(round, worker | shard)`` injections that every execution backend
(in-process ``Cluster``, ``ClusterSimulator``, ``MultiprocessCluster``)
applies identically, so a faulty run replays bit-for-bit across
backends just like a healthy one.

Event kinds and their scopes:

``crash`` / ``hang`` (shard-scoped)
    The shard's workers depart at the event round.  In the multiprocess
    runtime the shard process really dies (``os._exit``) or blocks
    until the chief's round timeout SIGKILLs it; in the in-process and
    simulated backends the same workers' rows are zeroed and their
    momentum state cleared.  A departure lasts until a matching
    ``rejoin`` (or forever).
``rejoin`` (shard-scoped)
    The departed shard returns at the event round.  The multiprocess
    chief respawns the process from its :class:`WorkerShardSpec`; the
    fresh shard fast-forwards its SeedTree streams through the missed
    rounds so post-rejoin rounds are bit-identical to the in-process
    replay.
``drop_round`` (worker-scoped)
    One worker's submission for one round is dropped (row zeroed), like
    a lost message: momentum and loss accounting continue — the worker
    computed the round, the wire lost it.
``corrupt_payload`` (worker-scoped)
    One worker's submitted (and observed-clean) row is multiplied by
    ``factor`` for one round — a deterministic stand-in for bit-flips
    or faulty scaling, applied chief-side in every backend so the float
    operations match exactly.
``slow`` (worker-scoped)
    Wall-clock only: scales the worker's simulated latency (simulator)
    or sleeps the owning shard briefly (multiprocess).  Never changes
    any numeric result — ``slow`` events are invisible to the golden
    traces by construction.

Rounds are 1-based and match ``StepResult.step`` (the first round a
cluster executes is round 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.typing import is_finite_number, is_integer

__all__ = [
    "FAULT_KINDS",
    "SHARD_KINDS",
    "WORKER_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ResolvedFaultPlan",
    "ShardOutage",
    "shard_partition",
]

#: All supported fault kinds.
FAULT_KINDS = ("crash", "hang", "slow", "drop_round", "corrupt_payload", "rejoin")

#: Kinds that target a shard (the whole contiguous worker slice).
SHARD_KINDS = ("crash", "hang", "rejoin")

#: Kinds that target a single worker.
WORKER_KINDS = ("slow", "drop_round", "corrupt_payload")


def shard_partition(num_honest: int, num_shards: int) -> list[tuple[int, ...]]:
    """The contiguous worker partition used by every backend.

    ``Experiment.build_shard_specs`` splits the cohort with it, and the
    fault plane maps shard-scoped events to worker ids through it, so a
    plan resolves to the same worker sets whether or not shard
    processes actually exist.
    """
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > num_honest:
        raise ConfigurationError(
            f"cannot split {num_honest} honest workers into {num_shards} shards"
        )
    base, extra = divmod(num_honest, num_shards)
    partition: list[tuple[int, ...]] = []
    start = 0
    for shard_id in range(num_shards):
        size = base + (1 if shard_id < extra else 0)
        partition.append(tuple(range(start, start + size)))
        start += size
    return partition


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection: ``kind`` at ``round`` on a worker/shard."""

    round: int
    kind: str
    shard: int | None = None
    worker: int | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        for name in ("round", "shard", "worker"):
            value = getattr(self, name)
            if name != "round" and value is None:
                continue
            if not is_integer(value):
                raise ConfigurationError(
                    f"fault event field {name!r} must be an integer, got {value!r}"
                )
        if not is_finite_number(self.factor):
            raise ConfigurationError(
                "fault event field 'factor' must be a finite number, "
                f"got {self.factor!r}"
            )
        if self.round < 1:
            raise ConfigurationError(
                f"fault rounds are 1-based, got round {self.round}"
            )
        if self.kind in SHARD_KINDS:
            if self.shard is None or self.worker is not None:
                raise ConfigurationError(
                    f"{self.kind!r} is shard-scoped: set shard=, not worker="
                )
            if self.shard < 0:
                raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        else:
            if self.worker is None or self.shard is not None:
                raise ConfigurationError(
                    f"{self.kind!r} is worker-scoped: set worker=, not shard="
                )
            if self.worker < 0:
                raise ConfigurationError(f"worker must be >= 0, got {self.worker}")
        if self.kind == "slow" and self.factor <= 0.0:
            raise ConfigurationError(f"slow factor must be > 0, got {self.factor}")

    def to_dict(self) -> dict:
        """JSON-ready form (only the fields the kind uses)."""
        payload: dict = {"round": self.round, "kind": self.kind}
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.kind in ("corrupt_payload", "slow"):
            payload["factor"] = self.factor
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault event must be a dict, got {type(payload).__name__}"
            )
        known = {"round", "kind", "shard", "worker", "factor"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault event fields: {sorted(unknown)}"
            )
        return cls(
            round=payload.get("round", 0),
            kind=payload.get("kind", ""),
            shard=payload.get("shard"),
            worker=payload.get("worker"),
            factor=payload.get("factor", 1.0),
        )


@dataclass(frozen=True)
class ShardOutage:
    """One departure interval of a shard: rounds ``[start, rejoin)``.

    ``rejoin is None`` means the shard never returns.  ``mode`` is the
    multiprocess failure mode (``"die"`` for ``crash``, ``"hang"`` for
    ``hang``); the in-process backends treat both identically.
    """

    start: int
    mode: str
    rejoin: int | None = None

    def covers(self, round_index: int) -> bool:
        if round_index < self.start:
            return False
        return self.rejoin is None or round_index < self.rejoin


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events.

    ``num_shards`` is part of the plan, not of the backend: shard-scoped
    events name shards of *this* partition, so the plan resolves to the
    same worker sets on every backend regardless of how (or whether)
    worker processes are actually grouped.  A multiprocess experiment
    must be configured with the same shard count.
    """

    events: tuple[FaultEvent, ...] = ()
    num_shards: int = 1

    def __post_init__(self) -> None:
        num_shards = self.num_shards
        if not is_integer(num_shards):
            raise ConfigurationError(
                f"fault plan field 'num_shards' must be an integer, got {num_shards!r}"
            )
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"events must be FaultEvent, got {type(event).__name__}"
                )
            if event.shard is not None and event.shard >= self.num_shards:
                raise ConfigurationError(
                    f"event targets shard {event.shard} but the plan has "
                    f"{self.num_shards} shards"
                )
        # Validate the per-shard crash/rejoin alternation eagerly so a
        # malformed plan fails at construction, not mid-run.
        self._shard_outages()

    def _shard_outages(self) -> dict[int, list[ShardOutage]]:
        """Per-shard outage intervals from the crash/hang/rejoin events."""
        # Rejoin sorts before a same-round departure: "rejoin at r" means
        # present at r, so a new crash at r closes over the fresh state.
        ordered = sorted(
            (event for event in self.events if event.kind in SHARD_KINDS),
            key=lambda event: (event.round, event.kind != "rejoin"),
        )
        open_outage: dict[int, tuple[int, str]] = {}
        outages: dict[int, list[ShardOutage]] = {}
        for event in ordered:
            shard = event.shard
            if event.kind == "rejoin":
                if shard not in open_outage:
                    raise ConfigurationError(
                        f"shard {shard} rejoin at round {event.round} has no "
                        "preceding crash/hang"
                    )
                start, mode = open_outage.pop(shard)
                if event.round <= start:
                    raise ConfigurationError(
                        f"shard {shard} rejoin round {event.round} must come "
                        f"after its departure at round {start}"
                    )
                outages.setdefault(shard, []).append(
                    ShardOutage(start=start, mode=mode, rejoin=event.round)
                )
            else:
                if shard in open_outage:
                    raise ConfigurationError(
                        f"shard {shard} is already down at round {event.round}; "
                        "schedule a rejoin before the next crash/hang"
                    )
                mode = "die" if event.kind == "crash" else "hang"
                open_outage[shard] = (event.round, mode)
        for shard, (start, mode) in open_outage.items():
            outages.setdefault(shard, []).append(
                ShardOutage(start=start, mode=mode, rejoin=None)
            )
        for intervals in outages.values():
            intervals.sort(key=lambda outage: outage.start)
        return outages

    @property
    def max_round(self) -> int:
        """The last round any event references (0 for an empty plan)."""
        return max((event.round for event in self.events), default=0)

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault plan must be a dict, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"num_shards", "events", "name"}
        if unknown:
            raise ConfigurationError(f"unknown fault plan fields: {sorted(unknown)}")
        events = payload.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise ConfigurationError("fault plan 'events' must be a list")
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            num_shards=payload.get("num_shards", 1),
        )

    def resolve(self, num_honest: int) -> "ResolvedFaultPlan":
        """Bind the plan to a cohort size, mapping shards to worker ids."""
        partition = shard_partition(num_honest, self.num_shards)
        for event in self.events:
            if event.worker is not None and event.worker >= num_honest:
                raise ConfigurationError(
                    f"event targets worker {event.worker} but the cohort has "
                    f"{num_honest} honest workers"
                )
        return ResolvedFaultPlan(
            plan=self, num_honest=num_honest, partition=tuple(partition)
        )


@dataclass(frozen=True)
class ResolvedFaultPlan:
    """A :class:`FaultPlan` bound to a cohort: per-round lookups.

    Every backend queries this one object, so the notion of "who is
    absent in round r" is computed once, identically, everywhere.
    """

    plan: FaultPlan
    num_honest: int
    partition: tuple[tuple[int, ...], ...]
    _outages: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_outages", self.plan._shard_outages())

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def shard_outages(self, shard_id: int) -> tuple[ShardOutage, ...]:
        """Departure intervals of ``shard_id`` (possibly empty)."""
        return tuple(self._outages.get(shard_id, ()))

    def down_shards(self, round_index: int) -> frozenset[int]:
        """Shards departed (crashed/hung, not yet rejoined) in this round."""
        return frozenset(
            shard
            for shard, intervals in self._outages.items()
            if any(outage.covers(round_index) for outage in intervals)
        )

    def rejoining_shards(self, round_index: int) -> tuple[int, ...]:
        """Shards whose rejoin happens exactly at this round (sorted)."""
        rejoining = set()
        for shard, intervals in self._outages.items():
            for outage in intervals:
                if outage.rejoin == round_index:
                    rejoining.add(shard)
        return tuple(sorted(rejoining))

    def absent_workers(self, round_index: int) -> frozenset[int]:
        """Workers whose shard is down this round (momentum resets, loss
        excluded) — does *not* include ``drop_round`` targets."""
        absent: set[int] = set()
        for shard in self.down_shards(round_index):
            absent.update(self.partition[shard])
        return frozenset(absent)

    def dropped_workers(self, round_index: int) -> frozenset[int]:
        """Workers whose submission is dropped this round (row zeroed,
        momentum and loss accounting continue)."""
        return frozenset(
            event.worker
            for event in self.plan.events
            if event.kind == "drop_round" and event.round == round_index
        )

    def zeroed_workers(self, round_index: int) -> frozenset[int]:
        """All rows zeroed on the wire this round (absent + dropped)."""
        return self.absent_workers(round_index) | self.dropped_workers(round_index)

    def corrupted_workers(self, round_index: int) -> dict[int, float]:
        """Worker -> multiplicative factor for this round's corruptions."""
        return {
            event.worker: float(event.factor)
            for event in self.plan.events
            if event.kind == "corrupt_payload" and event.round == round_index
        }

    def slow_factor(self, round_index: int, worker: int) -> float:
        """Latency scale for (round, worker); 1.0 when unaffected."""
        factor = 1.0
        for event in self.plan.events:
            if (
                event.kind == "slow"
                and event.round == round_index
                and event.worker == worker
            ):
                factor *= float(event.factor)
        return factor

    def shard_spec_fields(self, shard_id: int, start_round: int = 1) -> dict:
        """``WorkerShardSpec`` overrides for a shard (re)spawned at
        ``start_round``.

        Maps the shard's next outage onto the spec's failure-injection
        seam (``fail_step``/``fail_mode``), its workers' remaining
        ``slow`` events onto ``slow_steps``, and sets ``start_step``
        (the seed-stream fast-forward of a respawn; 0 for the initial
        spawn at ``start_round=1``).
        """
        if not 0 <= shard_id < len(self.partition):
            raise ConfigurationError(
                f"unknown shard {shard_id} (plan has {len(self.partition)})"
            )
        upcoming = [
            outage
            for outage in self.shard_outages(shard_id)
            if outage.start >= start_round
        ]
        workers = set(self.partition[shard_id])
        return {
            "start_step": start_round - 1,
            "fail_step": upcoming[0].start if upcoming else None,
            "fail_mode": upcoming[0].mode if upcoming else "die",
            "slow_steps": tuple(
                (event.round, float(event.factor))
                for event in self.plan.events
                if event.kind == "slow"
                and event.worker in workers
                and event.round >= start_round
            ),
        }
