"""Rate-based fault models: sample a :class:`FaultPlan` from rates.

Sampling is a pure function of one ``numpy.random.Generator`` (drawn
from the experiment's SeedTree at path ``"faults"``) plus the model
kwargs — so every backend, and every resume of the same experiment,
draws the *identical* schedule.  The draw order is fixed (rounds outer,
shards then workers inner; one uniform per candidate site) and does not
depend on which faults actually fire, keeping the stream stable under
rate changes of *other* kinds.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.typing import is_finite_number, is_integer

__all__ = ["FAULT_MODEL_NAMES", "build_fault_plan", "sample_fault_plan"]

#: Names accepted by the ``faults`` config key / ``--faults`` flag.
FAULT_MODEL_NAMES = ("schedule", "random")


def _is_count(value) -> bool:
    return is_integer(value) and value >= 1


def sample_fault_plan(
    rng: np.random.Generator,
    *,
    num_rounds: int,
    num_workers: int,
    num_shards: int = 1,
    crash_rate: float = 0.0,
    hang_rate: float = 0.0,
    rejoin_after: int | None = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    corrupt_factor: float = 10.0,
    slow_rate: float = 0.0,
    slow_factor: float = 4.0,
) -> FaultPlan:
    """Sample a fault plan from per-round Bernoulli rates.

    ``crash_rate``/``hang_rate`` are per-shard-per-round departure
    probabilities; a departed shard rejoins ``rejoin_after`` rounds
    later (never, when ``None``).  ``drop_rate``/``corrupt_rate``/
    ``slow_rate`` are per-worker-per-round.  At least one shard is
    always kept up: a departure that would empty the cohort is skipped
    (its uniform is still drawn, so the stream stays aligned).
    """
    if num_rounds < 1:
        raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
    for name, rate in (
        ("crash_rate", crash_rate),
        ("hang_rate", hang_rate),
        ("drop_rate", drop_rate),
        ("corrupt_rate", corrupt_rate),
        ("slow_rate", slow_rate),
    ):
        if not is_finite_number(rate) or not 0 <= rate <= 1:
            raise ConfigurationError(f"{name} must be in [0, 1], got {rate!r}")
    if not _is_count(num_shards):
        raise ConfigurationError(
            f"num_shards must be an integer >= 1, got {num_shards!r}"
        )
    if rejoin_after is not None and not _is_count(rejoin_after):
        raise ConfigurationError(
            f"rejoin_after must be an integer >= 1 round, got {rejoin_after!r}"
        )

    events: list[FaultEvent] = []
    down_until: dict[int, int | None] = {}
    for round_index in range(1, num_rounds + 1):
        for shard_id in range(num_shards):
            until = down_until.get(shard_id)
            if shard_id in down_until:
                if until is not None and round_index >= until:
                    events.append(
                        FaultEvent(round=round_index, kind="rejoin", shard=shard_id)
                    )
                    del down_until[shard_id]
                continue  # back this round; eligible to depart again next round
            crash_draw = float(rng.random())
            hang_draw = float(rng.random())
            kind = None
            if crash_draw < crash_rate:
                kind = "crash"
            elif hang_draw < hang_rate:
                kind = "hang"
            if kind is None:
                continue
            live_shards = num_shards - len(down_until)
            if live_shards <= 1:
                continue  # never empty the cohort
            events.append(FaultEvent(round=round_index, kind=kind, shard=shard_id))
            down_until[shard_id] = (
                None if rejoin_after is None else round_index + rejoin_after
            )
        for worker in range(num_workers):
            drop_draw = float(rng.random())
            corrupt_draw = float(rng.random())
            slow_draw = float(rng.random())
            if drop_draw < drop_rate:
                events.append(
                    FaultEvent(round=round_index, kind="drop_round", worker=worker)
                )
            if corrupt_draw < corrupt_rate:
                events.append(
                    FaultEvent(
                        round=round_index,
                        kind="corrupt_payload",
                        worker=worker,
                        factor=corrupt_factor,
                    )
                )
            if slow_draw < slow_rate:
                events.append(
                    FaultEvent(
                        round=round_index,
                        kind="slow",
                        worker=worker,
                        factor=slow_factor,
                    )
                )
    return FaultPlan(events=tuple(events), num_shards=num_shards)


def build_fault_plan(
    spec,
    *,
    num_rounds: int,
    num_workers: int,
    seeds,
) -> FaultPlan:
    """Normalize a ``faults`` spec into a :class:`FaultPlan`.

    Accepted forms:

    * a :class:`FaultPlan` instance (returned as-is);
    * ``{"name": "schedule", "events": [...], "num_shards": k}`` — an
      explicit schedule (``"name"`` optional);
    * ``{"name": "random", **rates}`` — sampled from the experiment
      SeedTree at path ``"faults"`` via :func:`sample_fault_plan`;
    * a bare string naming a model (``"random"`` with default rates).
    """
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigurationError(
            "faults must be a FaultPlan, a dict spec, or a model name; "
            f"got {type(spec).__name__}"
        )
    payload = dict(spec)
    name = payload.pop("name", "schedule" if "events" in payload else "random")
    if name not in FAULT_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown fault model {name!r}; choose from {FAULT_MODEL_NAMES}"
        )
    if name == "schedule":
        return FaultPlan.from_dict(payload)
    unknown = set(payload) - {
        "num_shards",
        "crash_rate",
        "hang_rate",
        "rejoin_after",
        "drop_rate",
        "corrupt_rate",
        "corrupt_factor",
        "slow_rate",
        "slow_factor",
    }
    if unknown:
        raise ConfigurationError(
            f"unknown random fault model fields: {sorted(unknown)}"
        )
    return sample_fault_plan(
        seeds.generator("faults"),
        num_rounds=num_rounds,
        num_workers=num_workers,
        **payload,
    )
