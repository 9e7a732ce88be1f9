"""The five workloads and how one of their runs executes.

A workload turns the benchmark seed ``S`` into its inputs (the dataset,
the model, the fault plan) and into a *cycle*: the ordered runs the
benchmark repeats, whole cycles at a time, until the measured time is
spent.  Every repeat of a cycle has identical inputs, so each run
position must reproduce its first digest exactly.

Training seeds are ``S*100+1, S*100+2, ...``, the data seed is ``S`` and
the chaos fault events are drawn with ``numpy.random.default_rng(S)``
and handed to the program as an explicit event list: the program never
sees ``S`` itself.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    Callback,
    Experiment,
    LogisticRegressionModel,
    make_phishing_dataset,
    phishing_environment,
    train_test_split,
)
from repro.experiments import figure_configs
from repro.telemetry import read_trace, validate_events

import layers
from tracer import Patches


@dataclass
class Inputs:
    """What a workload builds once per process from the seed."""

    model: object
    train: object
    test: object


@dataclass
class RunSpec:
    """One run of a cycle."""

    label: str
    build: Callable[[], Experiment]
    rounds: int
    simulate: bool = False
    #: Callback-free: the run must go through the fused RoundEngine, so
    #: its rounds cannot be timed one by one from outside.
    fused: bool = False
    #: The run's own JSONL telemetry trace, validated after the run.
    telemetry_path: Path | None = None
    #: Rounds at which a respawned shard rejoins (multiprocess half).
    rejoin_rounds: tuple[int, ...] = ()


@dataclass
class RunRecord:
    """What one executed run measured and produced."""

    position: int
    label: str
    rounds: int
    traced: bool
    setup_ns: int = 0
    run_ns: int = 0
    intervals_ns: np.ndarray | None = field(default=None, repr=False)
    digest: str | None = None
    accuracy: float | None = None
    rejoin_ms: list = field(default_factory=list)
    error: str | None = None


@dataclass
class Workload:
    """A named workload (BENCHMARK.json says why each exists)."""

    name: str
    build_inputs: Callable[[int], Inputs]
    cycle: Callable[[Inputs, int, Path, bool], list]
    #: Cross-run checks beyond the per-run ones; returns failure messages
    #: keyed by the indices of the records they fail.
    cross_check: Callable[[list], dict] | None = None


class RoundClock(Callback):
    """Stamps the start of every round, from outside the program."""

    needs_step_matrices = False

    def __init__(self):
        self.starts: list[int] = []

    def on_step_start(self, state) -> None:
        self.starts.append(time.perf_counter_ns())


def digest(parameters) -> str:
    """SHA-256 of the final parameters' float64 bytes."""
    array = np.ascontiguousarray(parameters, dtype=np.float64)
    return hashlib.sha256(array.tobytes()).hexdigest()


def execute(spec: RunSpec, position: int, inputs: Inputs, recorder=None) -> RunRecord:
    """Build, run and check one run; never raises for a run's failure."""
    record = RunRecord(position, spec.label, spec.rounds, traced=recorder is not None)
    clock = None if spec.fused else RoundClock()
    patches = Patches()
    started = time.perf_counter_ns()
    try:
        experiment = spec.build()
        if spec.fused:
            engine = experiment.build_cluster().engine
            if not engine.supports_fused:
                raise AssertionError(
                    f"fused engine unavailable: {engine.fused_unsupported_reason}"
                )
        callbacks = [] if clock is None else [clock]
        if recorder is not None:
            recorder.run_id += 1
            layers.install(recorder, experiment, patches)
        first = time.perf_counter_ns()
        try:
            if spec.simulate:
                result = experiment.simulate(callbacks=callbacks)
            else:
                result = experiment.run(callbacks=callbacks)
        finally:
            ended = time.perf_counter_ns()
            patches.restore()
        if clock is not None:
            if len(clock.starts) != spec.rounds:
                raise AssertionError(
                    f"{len(clock.starts)} rounds ran, expected {spec.rounds}"
                )
            first = clock.starts[0]
            record.intervals_ns = np.diff(np.array(clock.starts + [ended]))
            record.rejoin_ms = [
                record.intervals_ns[step - 1] / 1e6 for step in spec.rejoin_rounds
            ]
        record.setup_ns = first - started
        record.run_ns = ended - first
        _check_result(spec, result, record, inputs)
    except Exception:  # a failed run is counted, not fatal
        patches.restore()
        record.error = traceback.format_exc(limit=4).strip().splitlines()[-1]
    return record


def _check_result(spec: RunSpec, result, record: RunRecord, inputs: Inputs) -> None:
    losses = np.asarray(result.history.losses)
    parameters = np.asarray(result.final_parameters)
    if losses.size == 0 or not np.isfinite(losses).all():
        raise AssertionError("loss history is empty or not finite")
    if not np.isfinite(parameters).all():
        raise AssertionError("final parameters are not finite")
    record.digest = digest(parameters)
    record.accuracy = float(
        inputs.model.accuracy(parameters, inputs.test.features, inputs.test.labels)
    )
    if spec.telemetry_path is not None:
        validate_events(read_trace(spec.telemetry_path))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def paper_inputs(seed: int) -> Inputs:
    """The paper's task: synthetic phishing, 8400/2655 split, d = 69."""
    return Inputs(*phishing_environment(data_seed=seed))


def synthetic_inputs(num_features: int, train_points: int, test_points: int):
    """Phishing-like data at another width (d = ``num_features`` + 1)."""

    def build(seed: int) -> Inputs:
        dataset = make_phishing_dataset(
            seed=seed, num_points=train_points + test_points, num_features=num_features
        )
        train, test = train_test_split(
            dataset, train_points, np.random.default_rng(seed + 1)
        )
        return Inputs(LogisticRegressionModel(num_features), train, test)

    return build


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------


def _rounds(full: int, smoke: bool, smoke_rounds: int = 50) -> int:
    """Rounds per run: ``full``, or a short pass for ``--smoke``."""
    return smoke_rounds if smoke else full


def figure2_cycle(inputs: Inputs, seed: int, workdir: Path, smoke: bool) -> list:
    """The eight Figure 2 cells (b = 50), evaluated every 50 rounds."""
    rounds = _rounds(300, smoke)
    configs = figure_configs(batch_size=50, num_steps=rounds, seeds=(seed * 100 + 1,))
    return [
        RunSpec(
            config.name,
            partial(
                Experiment.from_config, config, inputs.model, inputs.train, inputs.test
            ),
            rounds,
        )
        for config in configs
    ]


def _krum_cell(inputs: Inputs, seed: int, rounds: int, **extra) -> Callable:
    """The paper-scale Krum + Gaussian DP + worker momentum cell."""
    return partial(
        Experiment,
        model=inputs.model,
        train_dataset=inputs.train,
        num_steps=rounds,
        n=25,
        f=11,
        gar="krum",
        attack="little",
        batch_size=50,
        epsilon=0.5,
        momentum=0.99,
        seed=seed,
        **extra,
    )


def fused_krum_cycle(inputs: Inputs, seed: int, workdir: Path, smoke: bool) -> list:
    rounds = _rounds(3000, smoke)
    return [
        RunSpec(f"s{run_seed}", _krum_cell(inputs, run_seed, rounds), rounds, fused=True)
        for run_seed in (seed * 100 + 1, seed * 100 + 2)
    ]


def highdim_cycle(inputs: Inputs, seed: int, workdir: Path, smoke: bool) -> list:
    rounds = _rounds(60, smoke, smoke_rounds=10)
    return [
        RunSpec(
            "topk",
            _krum_cell(inputs, seed * 100 + 1, rounds, codec="top-k"),
            rounds,
            fused=True,
        )
    ]


def chaos_plan(seed: int, rounds: int, num_honest: int, num_shards: int = 2) -> dict:
    """A crash and a rejoin per shard every ~1000 rounds, one dropped and
    one corrupted message.  Each shard's outages sit in its own slice of
    the period, so some honest worker is always live.  Outages have a
    fixed length and only their position is drawn: a shorter outage
    would make the run cheaper, and the seed would move throughput.  No
    ``hang`` events: a hang costs exactly ``round_timeout`` of waiting."""
    rng = np.random.default_rng(seed)
    period = min(1000, rounds)
    slot = period // num_shards
    outage = slot // 5
    events = []
    for start in range(0, rounds, period):
        for shard in range(num_shards):
            crash = start + shard * slot + int(rng.integers(1, slot - outage))
            rejoin = crash + outage
            if rejoin <= rounds:
                events.append({"kind": "crash", "round": crash, "shard": shard})
                events.append({"kind": "rejoin", "round": rejoin, "shard": shard})
    events.append(
        {
            "kind": "drop_round",
            "round": int(rng.integers(1, rounds + 1)),
            "worker": int(rng.integers(num_honest)),
        }
    )
    events.append(
        {
            "kind": "corrupt_payload",
            "round": int(rng.integers(1, rounds + 1)),
            "worker": int(rng.integers(num_honest)),
            "factor": float(rng.uniform(1.5, 4.0)),
        }
    )
    return {"num_shards": num_shards, "events": events}


def chaos_cycle(inputs: Inputs, seed: int, workdir: Path, smoke: bool) -> list:
    """One fault plan, run in-process then on two shard processes."""
    rounds = _rounds(1000, smoke)
    plan = chaos_plan(seed, rounds, num_honest=6)
    rejoins = tuple(
        sorted(event["round"] for event in plan["events"] if event["kind"] == "rejoin")
    )
    cell = partial(
        Experiment,
        model=inputs.model,
        train_dataset=inputs.train,
        test_dataset=inputs.test,
        num_steps=rounds,
        n=11,
        f=5,
        gar="mda",
        attack="little",
        batch_size=50,
        epsilon=0.2,
        seed=seed * 100 + 1,
        faults=plan,
        num_shards=2,
    )
    inprocess_trace = workdir / "chaos-inprocess.jsonl"
    multiprocess_trace = workdir / "chaos-multiprocess.jsonl"
    return [
        RunSpec(
            "inprocess",
            partial(
                cell,
                telemetry=inprocess_trace,
                checkpoint=workdir / "chaos.checkpoint.json",
                checkpoint_every=max(1, min(100, rounds // 5)),
            ),
            rounds,
            telemetry_path=inprocess_trace,
        ),
        RunSpec(
            "multiprocess",
            partial(cell, telemetry=multiprocess_trace, backend="multiprocess"),
            rounds,
            telemetry_path=multiprocess_trace,
            rejoin_rounds=rejoins,
        ),
    ]


def chaos_cross_check(records: list) -> dict:
    """Both backends must end on the same parameters, cycle by cycle."""
    failures = {}
    for index in range(0, len(records) - 1, 2):
        first, second = records[index], records[index + 1]
        if first.digest is not None and second.digest is not None:
            if first.digest != second.digest:
                message = "in-process and multiprocess digests differ"
                failures[index] = failures[index + 1] = message
    return failures


def sim_async_cycle(inputs: Inputs, seed: int, workdir: Path, smoke: bool) -> list:
    """Semi-sync K-of-n with stragglers and sampling, then async staleness."""
    updates = _rounds(1500, smoke)
    common = dict(
        model=inputs.model,
        train_dataset=inputs.train,
        test_dataset=inputs.test,
        num_steps=updates,
        batch_size=50,
    )
    return [
        RunSpec(
            "semi-sync",
            partial(
                Experiment,
                **common,
                n=13,
                f=3,
                gar="mda",
                attack="little",
                epsilon=0.2,
                seed=seed * 100 + 1,
                policy="semi-sync",
                policy_kwargs={"buffer_size": 8},
                latency="straggler",
                latency_kwargs={"base": 1.0, "slowdown": 8.0, "straggler_probability": 0.2},
                participation_rate=0.8,
                participation_kind="poisson",
            ),
            updates,
            simulate=True,
        ),
        RunSpec(
            "async",
            partial(
                Experiment,
                **common,
                n=11,
                f=3,
                gar="trimmed-mean",
                attack="signflip",
                seed=seed * 100 + 2,
                policy="async-staleness",
                policy_kwargs={"damping": "inverse"},
                latency="lognormal",
                latency_kwargs={"median": 1.0, "sigma": 0.6},
            ),
            updates,
            simulate=True,
        ),
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("paper-figure2", paper_inputs, figure2_cycle),
        Workload("fused-krum", synthetic_inputs(99, 2000, 500), fused_krum_cycle),
        Workload("highdim-topk", synthetic_inputs(9999, 500, 100), highdim_cycle),
        Workload("chaos", paper_inputs, chaos_cycle, chaos_cross_check),
        Workload("sim-async", paper_inputs, sim_async_cycle),
    )
}
