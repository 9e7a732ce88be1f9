"""The deterministic discrete-event cluster simulator.

:class:`ClusterSimulator` generalises the sequential synchronous
protocol of Section 2.1 — which :class:`repro.distributed.cluster.Cluster`
hard-codes — to an event-driven execution with a virtual clock:

1. a :class:`~repro.simulation.events.ModelBroadcast` opens a round,
   participation sampling picks the reporting honest workers, and one
   :class:`~repro.simulation.events.WorkerWake` per participant enters
   the heap at the broadcast instant;
2. wakes that share a timestamp and round are processed as one cohort
   through :func:`repro.distributed.worker.compute_cohort`, served by
   the simulator's :class:`~repro.distributed.worker.CohortPass` (the
   one worker pipeline the synchronous cluster uses; a cohort the pass
   cannot serve fails when the simulator is built), after which the
   colluding adversary crafts its Byzantine gradient exactly as in
   ``Cluster.step``;
3. each message is assigned a latency drawn from a stream seeded on
   ``(round, worker)`` and becomes a
   :class:`~repro.simulation.events.GradientArrival`;
4. on arrival the network's per-message drop decision resolves the slot
   (dropped messages deliver zeros — the server "considers any
   non-received gradient to be 0"), and the server *policy* decides
   whether to aggregate.

Every random draw comes from a path-addressed stream (worker batches
and noise, the attack, participation, latency, network drops), so a
simulation is a pure function of its seeds: replays are bit-identical
regardless of how events interleave in the heap.  In particular, with
:class:`~repro.simulation.policies.SyncPolicy`, zero latency and full
participation, the engine consumes exactly the streams ``Cluster.step``
consumes, in the same order — the golden-trace suite asserts the two
executions are indistinguishable bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.base import ByzantineAttack
from repro.distributed.cluster import RoundCore, StepResult
from repro.distributed.server import ParameterServer
from repro.distributed.worker import CohortPass, HonestWorker
from repro.exceptions import ConfigurationError, TrainingError
from repro.faults.plan import ResolvedFaultPlan
from repro.rng import SeedTree
from repro.simulation.events import (
    EventQueue,
    GradientArrival,
    ModelBroadcast,
    WorkerWake,
)
from repro.simulation.latency import ConstantLatency, LatencyModel
from repro.simulation.participation import FullParticipation, ParticipationSampler
from repro.simulation.policies import Arrival, RoundCompletion, ServerPolicy, SyncPolicy
from repro.typing import Vector

__all__ = ["ClusterSimulator", "SimStepResult"]


@dataclass(frozen=True)
class SimStepResult(StepResult):
    """One server update's instrumentation, with virtual-time context.

    Extends the synchronous :class:`~repro.distributed.cluster.StepResult`
    (so every existing callback keeps working) with the virtual clock of
    the update, the round whose arrival triggered it, the staleness
    damping applied, and the honest workers whose gradients fed it.
    """

    virtual_time: float = 0.0
    round_index: int = 0
    update_scale: float = 1.0
    staleness: float = 0.0
    participating: tuple[int, ...] = ()


@dataclass
class _RoundRecord:
    """Per-round bookkeeping: computed cohort + outstanding arrivals."""

    honest_ids: tuple[int, ...]
    submitted: np.ndarray
    clean: np.ndarray
    byzantine_gradient: Vector | None
    pending_arrivals: int
    bytes_on_wire: int | None = None


class ClusterSimulator(RoundCore):
    """Event-driven counterpart of :class:`repro.distributed.cluster.Cluster`.

    Wires the same components (server, honest workers, colluding
    adversary, network) plus the three simulation-only ones: a server
    :class:`~repro.simulation.policies.ServerPolicy`, a per-message
    :class:`~repro.simulation.latency.LatencyModel`, and a per-round
    :class:`~repro.simulation.participation.ParticipationSampler`.

    The simulator shares the ``Cluster`` read surface and round stages
    (:class:`~repro.distributed.cluster.RoundCore`) so loop callbacks
    written against a cluster drive a simulation unchanged; its honest
    rows come from each round's wake subset, and the policy replaces
    the synchronous network → server tail.

    Telemetry only *observes* the simulation: it never draws from an
    RNG stream, so it cannot change the event schedule or any numerical
    result.  Because rounds can interleave under async policies, events
    are stamped with the server's monotone ``step_count`` (the merged
    trace's ``step``) and carry ``round`` as an attribute.
    """

    def __init__(
        self,
        server: ParameterServer,
        honest_workers: Sequence[HonestWorker],
        num_byzantine: int = 0,
        attack: ByzantineAttack | None = None,
        attack_rng: np.random.Generator | None = None,
        network=None,
        codec=None,
        policy: ServerPolicy | None = None,
        latency: LatencyModel | None = None,
        participation: ParticipationSampler | None = None,
        seeds: SeedTree | None = None,
        faults: ResolvedFaultPlan | None = None,
        max_events_per_step: int = 100_000,
    ):
        honest_workers = list(honest_workers)
        if not honest_workers:
            raise ConfigurationError("need at least one honest worker")
        super().__init__(
            server,
            len(honest_workers),
            num_byzantine,
            attack,
            attack_rng,
            network,
            codec,
            faults,
        )
        if max_events_per_step < 1:
            raise ConfigurationError(
                f"max_events_per_step must be >= 1, got {max_events_per_step}"
            )
        if (
            policy is not None
            and not policy.barrier
            and participation is not None
            and not isinstance(participation, FullParticipation)
        ):
            raise ConfigurationError(
                f"policy {policy.name!r} is not barrier-style: per-round "
                "participation sampling is undefined without rounds (the "
                "round-1 draw would silently pin the cohort for the whole "
                "run); use full participation"
            )
        self._honest_workers = honest_workers
        self._cohort_pass = CohortPass(honest_workers)
        self._policy = policy if policy is not None else SyncPolicy()
        self._latency = latency if latency is not None else ConstantLatency(0.0)
        self._participation = (
            participation if participation is not None else FullParticipation()
        )
        self._seeds = seeds if seeds is not None else SeedTree(0)
        self._max_events_per_step = int(max_events_per_step)
        self._dimension = int(server.parameters.shape[0])
        self._policy.bind(self.n, self.num_honest, self._dimension)

        self._queue = EventQueue()
        self._clock = 0.0
        self._round = 0
        self._started = False
        self._rounds: dict[int, _RoundRecord] = {}
        self._last_honest: tuple[np.ndarray, np.ndarray] | None = None
        self._participation_counts = np.zeros(self.num_honest, dtype=np.int64)
        self._computation_counts = np.zeros(self.num_honest, dtype=np.int64)
        self._sampling_rounds = 0
        self._dropped_arrivals = 0

    @property
    def step_count(self) -> int:
        """Server updates completed so far."""
        return self._server.step_count

    # ------------------------------------------------------------------
    # simulation-specific read surface
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Current virtual wall-clock."""
        return self._clock

    @property
    def round_count(self) -> int:
        """Rounds opened so far (>= server updates under async policies)."""
        return self._round

    @property
    def policy(self) -> ServerPolicy:
        """The configured server policy."""
        return self._policy

    @property
    def sampling_round_count(self) -> int:
        """Full broadcasts at which participation sampling applied."""
        return self._sampling_rounds

    @property
    def participation_counts(self) -> np.ndarray:
        """Per-honest-worker count of sampled rounds participated in."""
        return self._participation_counts.copy()

    @property
    def participation_rates(self) -> dict[int, float]:
        """Realized per-worker participation rate over sampled rounds.

        An observation only: privacy is amplified at
        :attr:`inclusion_probabilities`.
        """
        if self._sampling_rounds == 0:
            return {worker: 0.0 for worker in range(self.num_honest)}
        return {
            worker: float(count) / self._sampling_rounds
            for worker, count in enumerate(self._participation_counts)
        }

    @property
    def inclusion_probabilities(self) -> dict[int, float]:
        """Per-worker probability of being sampled in one round — the
        rate privacy amplification by subsampling holds at."""
        return self._participation.inclusion_probabilities(
            tuple(range(self.num_honest))
        )

    @property
    def computation_counts(self) -> np.ndarray:
        """Per-honest-worker count of gradient computations (= mechanism
        invocations under DP) — what non-barrier privacy accounting
        composes over."""
        return self._computation_counts.copy()

    @property
    def dropped_arrivals(self) -> int:
        """Messages the network dropped en route to the server."""
        return self._dropped_arrivals

    def stats(self) -> dict:
        """Engine + policy counters for the simulation result."""
        return {
            "rounds": self._round,
            "server_steps": self.step_count,
            "virtual_time": self._clock,
            "dropped_arrivals": self._dropped_arrivals,
            "sampling_rounds": self._sampling_rounds,
            **self._policy.stats(),
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def advance(self) -> SimStepResult:
        """Process events until the next server update; return its result."""
        if not self._started:
            self._queue.push(ModelBroadcast(time=0.0, round_index=1, workers=None))
            self._started = True
        events_processed = 0
        while self._queue:
            events_processed += 1
            if events_processed > self._max_events_per_step:
                raise TrainingError(
                    f"simulation processed {events_processed} events without a "
                    f"server update; the policy appears to never aggregate"
                )
            event = self._queue.pop()
            self._clock = event.time
            if isinstance(event, ModelBroadcast):
                self._handle_broadcast(event)
            elif isinstance(event, WorkerWake):
                self._handle_wake_batch(self._drain_wake_batch(event))
            elif isinstance(event, GradientArrival):
                result = self._handle_arrival(event)
                if result is not None:
                    return result
            else:  # pragma: no cover - the vocabulary is closed
                raise TrainingError(f"unknown event type {type(event).__name__}")
        raise TrainingError(
            "event queue drained without a server update; no messages are in "
            "flight and the policy never aggregated"
        )

    def step(self) -> SimStepResult:
        """One server update, as :class:`~repro.pipeline.loop.TrainingLoop`
        steps every round core.

        Its ``honest_losses`` score the batches of the honest workers
        whose gradients fed the update (``participating``) at the
        parameters the update replaced: under the asynchronous policies
        an aggregated gradient may be stale, so the losses its own wake
        pass scored would measure an older model.
        """
        return self.advance()

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _handle_broadcast(self, event: ModelBroadcast) -> None:
        round_index = event.round_index
        self._round = max(self._round, round_index)
        if event.workers is None:
            candidates = tuple(range(self.num_honest))
            participants = self._participation.sample(
                round_index,
                candidates,
                self._seeds.generator("participation", round_index),
            )
            participants = tuple(sorted(participants))
            self._sampling_rounds += 1
            if participants:
                self._participation_counts[list(participants)] += 1
            byzantine_targets = (
                tuple(range(self.num_honest, self.n))
                if self._num_byzantine > 0
                else ()
            )
        else:
            participants = tuple(
                sorted(w for w in event.workers if w < self.num_honest)
            )
            byzantine_targets = tuple(
                sorted(w for w in event.workers if w >= self.num_honest)
            )
        expected = participants + byzantine_targets
        if not expected:
            raise TrainingError(f"round {round_index} opened with no workers")
        self._policy.on_round_start(round_index, expected)
        for worker_id in expected:
            self._queue.push(
                WorkerWake(time=event.time, round_index=round_index, worker_id=worker_id)
            )

    def _drain_wake_batch(self, first: WorkerWake) -> list[WorkerWake]:
        """Collect every wake of ``first``'s round scheduled at its instant.

        A round's wakes are pushed back-to-back by the broadcast handler,
        so they occupy consecutive heap positions: draining while the top
        matches ``(time, round)`` recovers exactly the cohort — which is
        what lets the honest gradients go through one
        :func:`compute_cohort` call, like the synchronous cluster.
        """
        batch = [first]
        while True:
            head = self._queue.peek()
            if (
                isinstance(head, WorkerWake)
                and head.time == first.time
                and head.round_index == first.round_index
            ):
                batch.append(self._queue.pop())
            else:
                return batch

    def _handle_wake_batch(self, wakes: list[WorkerWake]) -> None:
        round_index = wakes[0].round_index
        honest_ids = tuple(
            sorted(w.worker_id for w in wakes if w.worker_id < self.num_honest)
        )
        byzantine_ids = tuple(
            sorted(w.worker_id for w in wakes if w.worker_id >= self.num_honest)
        )
        parameters = self._server.parameters
        version = self._server.step_count
        timer = self._begin_round(version)
        round_bytes: int | None = None
        if honest_ids:
            # The wake subset through the shared in-process stages; the
            # fault plan maps rows through the global honest_ids.
            submitted, clean, row_bytes, _ = self._cohort_rows(
                timer, parameters, round_index, honest_ids, round=round_index
            )
            if row_bytes is not None:
                round_bytes = int(row_bytes.sum())
            self._last_honest = (submitted, clean)
            self._computation_counts[list(honest_ids)] += 1
        else:
            submitted = np.zeros((0, self._dimension))
            clean = np.zeros((0, self._dimension))
            round_bytes = 0 if self._codec is not None else None

        byzantine_gradient: Vector | None = None
        byzantine_rows = ()
        if byzantine_ids:
            # The colluding adversary observes the round's honest cohort;
            # on an async rebroadcast with no honest wake it falls back to
            # the latest honest traffic it has seen.
            observed_submitted, observed_clean = (
                (submitted, clean) if honest_ids else self._observed_honest()
            )
            byzantine_gradient = self._craft(
                round_index, observed_submitted, observed_clean, parameters
            )
            timer.lap("round.attack")
            byzantine_rows, byzantine_bytes = self._byzantine_rows(
                byzantine_gradient, round_index, byzantine_ids
            )
            if round_bytes is not None:
                round_bytes += byzantine_bytes
        timer.emit(self._telemetry, round=round_index)
        if round_bytes is not None:
            self._bytes_on_wire_total += round_bytes
            if self._telemetry is not None:
                self._telemetry.counter("wire.bytes", round_bytes, round=round_index)

        self._rounds[round_index] = _RoundRecord(
            honest_ids=honest_ids,
            submitted=submitted,
            clean=clean,
            byzantine_gradient=byzantine_gradient,
            pending_arrivals=len(honest_ids) + len(byzantine_ids),
            bytes_on_wire=round_bytes,
        )
        for position, worker_id in enumerate(honest_ids):
            self._schedule_arrival(
                wakes[0].time, round_index, worker_id, version, submitted[position]
            )
        for worker_id, row in zip(byzantine_ids, byzantine_rows):
            self._schedule_arrival(wakes[0].time, round_index, worker_id, version, row)

    def _observed_honest(self) -> tuple[np.ndarray, np.ndarray]:
        if self._last_honest is None:
            raise TrainingError(
                "Byzantine workers woke before any honest cohort existed"
            )
        return self._last_honest

    def _schedule_arrival(
        self,
        time: float,
        round_index: int,
        worker_id: int,
        version: int,
        gradient: Vector,
    ) -> None:
        delay = float(
            self._latency.sample(
                round_index,
                worker_id,
                self._seeds.generator("latency", round_index, worker_id),
            )
        )
        if delay < 0 or not np.isfinite(delay):
            raise ConfigurationError(
                f"latency model produced invalid delay {delay} for "
                f"(round={round_index}, worker={worker_id})"
            )
        if self._faults is not None and worker_id < self.num_honest:
            # "slow" events stretch delivery only — they never touch the
            # numbers (factor validated finite and > 0 at plan build).
            delay *= self._faults.slow_factor(round_index, worker_id)
        self._queue.push(
            GradientArrival(
                time=time + delay,
                round_index=round_index,
                worker_id=worker_id,
                model_version=version,
                gradient=gradient,
            )
        )

    def _handle_arrival(self, event: GradientArrival) -> SimStepResult | None:
        dropped = bool(
            self._network.drops_message(event.round_index, event.worker_id)
        )
        if dropped:
            self._dropped_arrivals += 1
            if self._telemetry is not None:
                self._telemetry.counter(
                    "network.dropped", round=event.round_index
                )
            gradient = np.zeros(self._dimension)
        else:
            gradient = event.gradient
        arrival = Arrival(
            time=event.time,
            round_index=event.round_index,
            worker_id=event.worker_id,
            model_version=event.model_version,
            server_version=self._server.step_count,
            gradient=gradient,
            dropped=dropped,
        )
        completion = self._policy.on_arrival(arrival)
        record = self._rounds.get(event.round_index)
        result: SimStepResult | None = None
        if completion is not None:
            result = self._complete(completion)
        else:
            rewake = self._policy.rewake(arrival)
            if rewake:
                next_round = self._round + 1
                self._round = next_round
                self._queue.push(
                    ModelBroadcast(
                        time=self._clock, round_index=next_round, workers=rewake
                    )
                )
        if record is not None:
            record.pending_arrivals -= 1
            if record.pending_arrivals <= 0:
                del self._rounds[event.round_index]
        return result

    def _complete(self, completion: RoundCompletion) -> SimStepResult:
        parameters = self._server.parameters
        timer = self._begin_round(self._server.step_count)
        aggregated = self._server.step(
            completion.matrix, update_scale=completion.update_scale
        )
        timer.lap("round.server")
        timer.emit(self._telemetry, round=completion.round_index)
        if self._telemetry is not None:
            self._telemetry.counter("rounds")
        record = self._rounds.get(completion.round_index)
        if record is not None:
            submitted, clean = record.submitted, record.clean
            byzantine_gradient = record.byzantine_gradient
            bytes_on_wire = record.bytes_on_wire
        else:  # pragma: no cover - completions always reference a live round
            submitted, clean = self._observed_honest()
            byzantine_gradient = None
            bytes_on_wire = None
        # The workers whose gradients actually fed this update (honest
        # part): under semi-sync/async that is the *arrived* set, not
        # the round's whole woken cohort.
        participating = tuple(
            worker_id
            for worker_id in completion.arrived_workers
            if worker_id < self.num_honest
        )
        if self._faults is not None:
            # Plan-absent workers delivered only an all-zero row: they
            # did not participate, and leave the honest losses exactly
            # as a dead shard's rows leave the multiprocess ones.
            # (drop_round workers stay: their loss continues, only their
            # message was lost.)
            absent = self._faults.absent_workers(completion.round_index)
            if absent:
                participating = tuple(
                    worker_id
                    for worker_id in participating
                    if worker_id not in absent
                )
        # One pass means one batch shape: the participants' batches
        # score in one stacked call, at the parameters this update replaced.
        batches = [self._honest_workers[worker].last_batch for worker in participating]
        honest_losses = np.zeros(0)
        if batches:
            honest_losses = np.asarray(
                self._honest_workers[0]._model.loss_stack(
                    parameters,
                    np.stack([features for features, _ in batches]),
                    np.stack([labels for _, labels in batches]),
                ),
                dtype=np.float64,
            )
        next_round = self._round + 1
        self._round = next_round
        self._queue.push(
            ModelBroadcast(
                time=self._clock,
                round_index=next_round,
                workers=completion.broadcast_to,
            )
        )
        return SimStepResult(
            step=self._server.step_count,
            aggregated=aggregated,
            honest_submitted=submitted,
            honest_clean=clean,
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=bytes_on_wire,
            virtual_time=self._clock,
            round_index=completion.round_index,
            update_scale=completion.update_scale,
            staleness=completion.staleness,
            participating=participating,
            honest_losses=honest_losses,
        )
