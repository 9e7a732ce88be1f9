"""Synchronous cluster driver and the round core every backend shares.

One :meth:`Cluster.step` is one synchronous round of the paper's
protocol (Fig. 1(b)):

1. every honest worker computes its (clipped, noised) gradient for the
   current parameters;
2. the colluding adversary observes the honest submissions and crafts
   *one* Byzantine gradient, submitted identically by all ``f``
   Byzantine workers (Section 5.1's attack setup);
3. the network delivers the ``n`` messages (dropped ones become zero);
4. the server aggregates with its GAR and updates the parameters.

:class:`RoundCore` holds everything the backends share: the
constructor checks, the read surface, the fault stage, the Byzantine
craft and the attack → network → server tail.  :class:`Cluster`, the
multiprocess :class:`~repro.distributed.runtime.MultiprocessCluster`
and the event-driven :class:`~repro.simulation.engine.ClusterSimulator`
supply only where the honest rows come from.

The cluster also exposes per-round instrumentation (honest clean /
submitted matrices, the crafted vector, the aggregate) that the VN
ratio and resilience analyses consume.

This synchronous driver *is* Section 2.1's system model: "the training
is divided into sequential synchronous steps" and a non-received
gradient is zero.  When the protocol's timing is the object of study —
stragglers, staleness, partial participation — use the discrete-event
engine in :mod:`repro.simulation` instead: its
:class:`~repro.simulation.policies.SyncPolicy` at zero latency replays
this class bit-identically, while its buffered and asynchronous
policies relax the barrier the paper assumes away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attacks.base import AttackContext, ByzantineAttack
from repro.compression.base import GradientCodec
from repro.distributed.network import PerfectNetwork
from repro.distributed.server import ParameterServer
from repro.distributed.worker import CohortPass, HonestWorker, compute_cohort
from repro.exceptions import ConfigurationError, DegradedRunError
from repro.faults.apply import apply_wire_faults, reset_absent_momentum
from repro.faults.plan import ResolvedFaultPlan
from repro.telemetry.timing import phase_timer
from repro.typing import Matrix, Vector

__all__ = ["Cluster", "RoundCore", "StepResult"]


@dataclass(frozen=True)
class StepResult:
    """Instrumentation for one synchronous round.

    Every round carries its ``honest_submitted`` / ``honest_clean``
    matrices, which the VN-ratio monitor, the resilience analyses and
    :class:`~repro.pipeline.callbacks.StepResultRecorder` read, and its
    ``honest_losses``, whose mean the training loop records.
    """

    step: int
    aggregated: Vector = field(repr=False)
    honest_submitted: Matrix = field(repr=False)
    honest_clean: Matrix = field(repr=False)
    byzantine_gradient: Vector | None = field(repr=False, default=None)
    #: Exact encoded bytes this round's n messages occupied on the wire
    #: (``None`` when the run has no codec).  With a codec,
    #: ``honest_submitted`` holds the *encoded* wire matrix — what the
    #: adversary observed and the server aggregated — while
    #: ``honest_clean`` stays pre-noise, pre-encoding.
    bytes_on_wire: int | None = None
    #: Each live honest worker's batch loss at the round's pre-update
    #: parameters (the paper's Section 5.1 training-loss sample).
    #: Workers absent this round leave it; a dropped message does not.
    honest_losses: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))

    @property
    def num_honest(self) -> int:
        """Number of honest submissions this round."""
        return int(self.honest_submitted.shape[0])


class RoundCore:
    """The round every backend shares, minus where the honest rows come from.

    Subclasses produce the honest ``(submitted, clean, row_bytes)`` rows
    — :meth:`_cohort_rows` in process, the wire-plane copy-out across
    processes — and hand them to the shared stages: :meth:`_apply_faults`,
    :meth:`_craft` and, on the synchronous backends, :meth:`_finish_round`.
    Every phase is timed through one
    :class:`~repro.telemetry.timing.PhaseTimer`; telemetry only
    *observes*, and no RNG stream is ever touched by it.
    """

    def __init__(
        self,
        server: ParameterServer,
        num_honest: int,
        num_byzantine: int = 0,
        attack: ByzantineAttack | None = None,
        attack_rng: np.random.Generator | None = None,
        network: PerfectNetwork | None = None,
        codec: GradientCodec | None = None,
        faults: ResolvedFaultPlan | None = None,
        telemetry=None,
    ):
        if num_byzantine < 0:
            raise ConfigurationError(f"num_byzantine must be >= 0, got {num_byzantine}")
        if num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "num_byzantine > 0 requires an attack (use ZeroGradientAttack "
                "for crash-style Byzantine workers)"
            )
        if attack is not None and attack_rng is None:
            raise ConfigurationError("an attack requires attack_rng")
        total = num_honest + num_byzantine
        if total != server.gar.n:
            raise ConfigurationError(
                f"server GAR expects n={server.gar.n} workers but there are "
                f"{num_honest} honest + {num_byzantine} Byzantine = {total}"
            )
        if num_byzantine > server.gar.f:
            raise ConfigurationError(
                f"there are {num_byzantine} Byzantine workers but the GAR "
                f"only tolerates f={server.gar.f}"
            )
        if faults is not None and faults.num_honest != num_honest:
            raise ConfigurationError(
                f"fault plan resolved for {faults.num_honest} honest workers "
                f"but there are {num_honest}"
            )
        self._server = server
        self._num_honest = int(num_honest)
        self._num_byzantine = int(num_byzantine)
        self._attack = attack
        self._attack_rng = attack_rng
        self._network = network if network is not None else PerfectNetwork()
        self._codec = codec
        # Fault plans target only honest workers; the Byzantine block is
        # adversary-controlled and out of the fault plane's scope.
        self._faults = faults
        # The in-process honest workers; empty when they live elsewhere.
        self._honest_workers: list[HonestWorker] = []
        self._bytes_on_wire_total = 0
        self._step = 0
        # Without a handle every phase laps the no-op NULL_TIMER, well
        # under 1 µs per round (see repro.telemetry.timing).
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # read surface
    # ------------------------------------------------------------------

    @property
    def server(self) -> ParameterServer:
        """The parameter server."""
        return self._server

    @property
    def honest_workers(self) -> list[HonestWorker]:
        """The in-process honest workers (a copy of the list).

        Empty on the multiprocess backend, whose workers live in shard
        processes and score their batches there (every backend returns
        the losses on :attr:`StepResult.honest_losses`).
        """
        return list(self._honest_workers)

    @property
    def parameters(self) -> Vector:
        """Current model parameters held by the server."""
        return self._server.parameters

    @property
    def n(self) -> int:
        """Total workers (honest + Byzantine)."""
        return self._num_honest + self._num_byzantine

    @property
    def num_honest(self) -> int:
        """Number of honest workers (including absent ones)."""
        return self._num_honest

    @property
    def num_byzantine(self) -> int:
        """Number of Byzantine workers actually attacking."""
        return self._num_byzantine

    @property
    def step_count(self) -> int:
        """Rounds completed so far."""
        return self._step

    @property
    def codec(self) -> GradientCodec | None:
        """The wire codec encoding submissions (or ``None``)."""
        return self._codec

    @property
    def bytes_on_wire_total(self) -> int:
        """Cumulative encoded bytes across all rounds (0 without a codec)."""
        return self._bytes_on_wire_total

    @property
    def faults(self) -> ResolvedFaultPlan | None:
        """The resolved fault plan driving this run (or ``None``)."""
        return self._faults

    @property
    def telemetry(self):
        """The installed :class:`repro.telemetry.Telemetry` handle (or None)."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, handle) -> None:
        self._telemetry = handle

    def run(self, num_steps: int) -> StepResult:
        """Run ``num_steps`` rounds; returns the last round's result."""
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        for _ in range(num_steps):
            result = self.step()
        return result

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def _begin_round(self, step: int):
        """Stamp ``step`` on the telemetry; returns the round's phase timer."""
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.set_step(step)
        return phase_timer(telemetry)

    def _cohort_rows(self, timer, parameters, step, worker_ids=None, **attrs):
        """In-process honest rows: compute, encode, then the fault stage.

        The cohort runs through :func:`compute_cohort`, which serves it
        with the :class:`CohortPass` the backend built over its workers
        (one gather and stacked gradient + clip; per-worker RNG streams
        preserved).  ``worker_ids`` selects a partial cohort (the
        simulator's wake subset); the pass, the codec and the fault plan
        stay keyed on global worker ids, so a partial cohort's rows
        match the whole round's bit for bit.  Returns ``(submitted,
        clean, row_bytes, losses)``, where ``losses`` leaves out the
        workers the fault stage found absent.
        """
        workers = self._honest_workers
        if worker_ids is not None:
            workers = [workers[worker] for worker in worker_ids]
        submitted, clean, losses = compute_cohort(workers, parameters, step)
        timer.lap("round.cohort")
        row_bytes = None
        if self._codec is not None:
            # The adversary observes what actually crossed the wire, so
            # encoding happens before the attack crafts its gradient.
            submitted, row_bytes = self._codec.encode_block(
                submitted,
                step,
                range(self._num_honest) if worker_ids is None else worker_ids,
            )
            timer.lap("round.codec")
        if self._faults is not None:
            rows = self._apply_faults(
                step, submitted, clean, row_bytes, worker_ids, **attrs
            )
            reset_absent_momentum(self._faults, step, self._honest_workers)
            losses = np.delete(losses, rows)
            timer.restart()  # in process, the fault stage is not a phase
        return submitted, clean, row_bytes, losses

    def _apply_faults(
        self,
        step: int,
        submitted: Matrix,
        clean: Matrix,
        row_bytes: np.ndarray | None,
        worker_ids=None,
        absent: frozenset = frozenset(),
        **attrs,
    ) -> list[int]:
        """The fault stage, in place: after the codec, before the attack.

        The adversary thus observes exactly what survived the wire.
        ``absent`` holds the honest workers the backend already knows
        sent nothing (departed shards); the plan's outages join them.
        An absent row is zero on the wire, in the clean matrix and in
        the byte count.  The plan's dropped rows (sent, then lost: their
        bytes count) and corrupted rows follow.  Row ``i`` is worker
        ``i`` unless ``worker_ids`` maps rows to workers.  Raises
        :class:`DegradedRunError` when no honest worker is left; returns
        the absent rows (ascending), whose losses leave the round's.
        """
        faults = self._faults
        if faults is not None:
            absent = absent | faults.absent_workers(step)
        if len(absent) >= self._num_honest:
            raise DegradedRunError(
                f"round {step}: every honest worker has departed; refusing "
                "to aggregate attack-only submissions"
            )
        if worker_ids is None:
            rows = sorted(absent)
        else:
            rows = [row for row, worker in enumerate(worker_ids) if worker in absent]
        if rows:
            submitted[rows] = 0.0
            clean[rows] = 0.0
            if row_bytes is not None:
                row_bytes[rows] = 0
        if faults is not None:
            zeroed, corrupted = apply_wire_faults(
                faults, step, submitted, clean, worker_ids
            )
            telemetry = self._telemetry
            if telemetry is not None and (zeroed or corrupted):
                telemetry.counter(
                    "fault.injected",
                    len(zeroed) + len(corrupted),
                    **attrs,
                    zeroed=sorted(zeroed),
                    corrupted=sorted(corrupted),
                )
        return rows

    def _craft(self, step: int, submitted, clean, parameters) -> Vector:
        """The colluding adversary's one Byzantine gradient for ``step``."""
        context = AttackContext(
            step=step,
            honest_submitted=submitted,
            honest_clean=clean,
            parameters=parameters,
            num_byzantine=self._num_byzantine,
            rng=self._attack_rng,
        )
        gradient = np.asarray(self._attack.craft(context), dtype=np.float64)
        if gradient.shape != parameters.shape:
            raise ConfigurationError(
                f"attack produced shape {gradient.shape}, "
                f"expected {parameters.shape}"
            )
        return gradient

    def _byzantine_rows(
        self, gradient: Vector, step: int, worker_ids, out: Matrix | None = None
    ) -> tuple[Matrix, int]:
        """The Byzantine workers' wire messages and their encoded bytes.

        Each copy of the crafted gradient is its own message: stochastic
        codecs give every copy its own ``(step, worker)`` stream, so the
        server may receive *distinct* quantizations of one crafted
        gradient, exactly as on a real wire.  A deterministic codec's
        encoding depends on the vector alone, so its copies are one
        encoded row, broadcast, with that row's bytes per copy.  Rows go
        into ``out`` when given (the fused engine's wire matrix); bytes
        are 0 without a codec.
        """
        codec = self._codec
        block = np.empty((len(worker_ids), gradient.shape[0])) if out is None else out
        if codec is not None and not codec.stochastic:
            encoded, row_bytes = codec.encode_block(
                gradient[np.newaxis], step, worker_ids[:1]
            )
            block[:] = encoded
            return block, int(row_bytes[0]) * len(worker_ids)
        block[:] = gradient
        if codec is None:
            return block, 0
        encoded, row_bytes = codec.encode_block(block, step, worker_ids)
        block[:] = encoded
        return block, int(row_bytes.sum())

    def _gar_winner(self, delivered: Matrix, aggregated: Vector) -> int | None:
        """The worker whose row the GAR selected verbatim, or ``None``.

        GAR-agnostic: the aggregate is compared against the delivered
        rows, and a matching row means the GAR selected that worker's
        gradient (Krum, MDA, ...).  The Byzantine block is ``f``
        *identical* rows, so a selected attack gradient matches several
        indices at once; a round has a winner only when every matching
        row sits on one side of the honest block.  Averaging GARs match
        no row and have no winner — correctly so.
        """
        matches = np.flatnonzero((delivered == aggregated).all(axis=1))
        num_honest = self._num_honest
        if matches.size and (matches[0] >= num_honest or matches[-1] < num_honest):
            return int(matches[0])
        return None

    def _finish_round(
        self, timer, parameters, submitted, clean, row_bytes, losses
    ) -> StepResult:
        """The attack → network → server tail of a synchronous round.

        ``losses`` are the live honest workers' batch losses.  Emits the
        round's phase spans and counters when telemetry is installed.
        """
        step = self._step
        telemetry = self._telemetry
        bytes_on_wire = None if row_bytes is None else int(row_bytes.sum())
        byzantine_gradient = None
        gradients = submitted
        if self._num_byzantine > 0:
            byzantine_gradient = self._craft(step, submitted, clean, parameters)
            block, byzantine_bytes = self._byzantine_rows(
                byzantine_gradient, step, range(self._num_honest, self.n)
            )
            if bytes_on_wire is not None:
                bytes_on_wire += byzantine_bytes
            gradients = np.vstack([submitted, block])
            timer.lap("round.attack")
        dropped_before = (
            None if telemetry is None else getattr(self._network, "dropped_total", None)
        )
        delivered = self._network.deliver(gradients, step)
        timer.lap("round.network")
        aggregated = self._server.step(delivered)
        timer.lap("round.server")
        if bytes_on_wire is not None:
            self._bytes_on_wire_total += bytes_on_wire
        if telemetry is not None:
            timer.emit(telemetry)
            telemetry.counter("rounds")
            winner = self._gar_winner(delivered, aggregated)
            if winner is not None:
                telemetry.gauge("gar.winner_index", winner)
                telemetry.counter("gar.winner_rounds")
                if winner >= self._num_honest:
                    telemetry.counter("gar.byzantine_selected")
            if dropped_before is not None:
                dropped = self._network.dropped_total - dropped_before
                if dropped:
                    telemetry.counter("network.dropped", dropped)
            if bytes_on_wire is not None:
                telemetry.counter("wire.bytes", bytes_on_wire)
        return StepResult(
            step=step,
            aggregated=aggregated,
            honest_submitted=submitted,
            honest_clean=clean,
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=bytes_on_wire,
            honest_losses=losses,
        )


class Cluster(RoundCore):
    """Wires workers, adversary, network and server into rounds."""

    def __init__(
        self,
        server: ParameterServer,
        honest_workers: Sequence[HonestWorker],
        num_byzantine: int = 0,
        attack: ByzantineAttack | None = None,
        attack_rng: np.random.Generator | None = None,
        network: PerfectNetwork | None = None,
        codec: GradientCodec | None = None,
        faults: ResolvedFaultPlan | None = None,
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
        self._honest_workers = honest_workers
        self._cohort_pass = CohortPass(honest_workers)
        self._engine = None

    @property
    def engine(self):
        """This cluster's fused :class:`repro.distributed.engine.RoundEngine`.

        Built lazily and cached; the engine executes blocks of rounds
        bit-identically to :meth:`step` (see its module docstring for
        eligibility and the fallback contract).
        """
        if self._engine is None:
            from repro.distributed.engine import RoundEngine

            self._engine = RoundEngine(self)
        return self._engine

    def step(self) -> StepResult:
        """Run one synchronous round and return its instrumentation."""
        self._step += 1
        step = self._step
        timer = self._begin_round(step)
        parameters = self._server.parameters
        rows = self._cohort_rows(timer, parameters, step)
        return self._finish_round(timer, parameters, *rows)
