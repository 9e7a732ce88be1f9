"""The fused round engine: blocks of synchronous rounds, allocation-free.

The paper's experiments are thousands of *short* rounds (n ~ 25
workers, d ~ 100 parameters), a regime where wall-clock is dominated by
per-round Python and allocator overhead rather than FLOPs.
:class:`RoundEngine` executes the synchronous protocol of
:class:`repro.distributed.cluster.Cluster` in fused blocks of ``R``
rounds that remove that overhead without changing a single output bit:

* **blockwise RNG pre-draw** — each worker's batch indices
  (:meth:`repro.data.batching.BatchSampler.sample_index_block`) and DP
  noise (:meth:`repro.privacy.mechanisms.NoiseMechanism.sample_noise_block`)
  for the whole block are drawn up front.  This is sound because every
  worker owns private generator streams and NumPy ``Generator`` draws
  are consumed value-by-value, so a block draw reads the identical
  stream as the per-round draws (pinned by hypothesis properties and
  the golden traces);
* **preallocated round buffers** — one ``(n, d)`` wire matrix, one
  ``(W, d)`` clean-gradient matrix and persistent ``(W, d)`` momentum
  stacks are reused across every round of the run, and one block's
  ``(R, W, b)`` batch rows and ``(R, W, d)`` noise across its blocks;
* **the cluster's cohort pass** — each round runs the
  :class:`~repro.distributed.worker.CohortPass` that per-round
  ``Cluster.step`` uses on the round's pre-drawn rows: chunked gathers
  into reused buffers, one forward/backward pass per chunk, one batched
  clip.  Workers' ``last_batch`` is set to the last round's rows when
  the run ends;
* **in-place server updates** — the optimizer writes the parameter
  buffer through :meth:`repro.optim.sgd.SGDOptimizer.step`'s ``out=``
  path, and the loop reads :attr:`ParameterServer.parameters_view`
  instead of per-round defensive copies;
* **one instrumented round per run** — only the last round builds a
  :class:`StepResult`, with copies of its matrices.

Every elementary float operation happens in the same order as the
per-round path, so fused execution is *bit-identical* to
``Cluster.step`` — the golden-trace suite replays the committed traces
through the engine unmodified.  Configurations the fused pipeline does
not cover (per-example clipping, custom worker/sampler/mechanism
subclasses, heterogeneous cohorts) simply report
``supports_fused == False`` and the caller steps per round; correctness
never depends on the fast path.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.cluster import Cluster, StepResult
from repro.distributed.server import ParameterServer
from repro.distributed.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.optim.sgd import SGDOptimizer
from repro.privacy.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    NoiseMechanism,
)
from repro.telemetry.timing import phase_timer

__all__ = ["RoundEngine", "default_block_rounds"]

#: Target footprint of one block's pre-drawn RNG buffers (noise and
#: batch indices).  Blocks are sized so the pre-draw stays cache-warm
#: instead of ballooning on large-d configurations.
_BLOCK_BYTES = 8 << 20

#: Hard cap on rounds per block; past this the amortisation is flat.
_MAX_BLOCK_ROUNDS = 256


def default_block_rounds(
    num_workers: int, dimension: int, batch_size: int, num_noised: int
) -> int:
    """Rounds per fused block for a cohort of the given shape."""
    per_round = 8 * (num_noised * dimension + num_workers * batch_size)
    return int(np.clip(_BLOCK_BYTES // max(per_round, 1), 1, _MAX_BLOCK_ROUNDS))


class RoundEngine:
    """Fused executor for a :class:`~repro.distributed.cluster.Cluster`.

    Built lazily by :attr:`Cluster.engine`; holds the preallocated
    buffers and the cohort's static configuration.  :meth:`run`
    executes fused blocks; eligibility is a pure function of the
    cluster's configuration, exposed as :attr:`supports_fused` /
    :attr:`fused_unsupported_reason`.
    """

    def __init__(self, cluster):
        self._cluster = cluster
        self._workers = list(cluster._honest_workers)
        self._server = cluster._server
        self._network = cluster._network
        self._attack_rng = cluster._attack_rng
        self._num_byzantine = cluster._num_byzantine
        self._codec = cluster._codec
        self._reason = self._probe()
        self._buffers_ready = False

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------

    def _probe(self) -> str | None:
        """Why the fused path cannot run, or ``None`` when it can."""
        if getattr(self._cluster, "_faults", None) is not None:
            # Fault plans zero rows and momentum per round; the fused
            # block pipeline has no per-round injection point.
            return "a fault plan is active (faults apply per round)"
        workers = self._workers
        for worker in workers:
            cls = type(worker)
            if cls.compute is not HonestWorker.compute or cls._finish is not HonestWorker._finish:
                return f"worker subclass {cls.__name__} overrides the pipeline"
            mechanism = worker._mechanism
            if mechanism is not None:
                if not isinstance(mechanism, NoiseMechanism) or (
                    type(mechanism).privatize is not NoiseMechanism.privatize
                ):
                    return f"mechanism {type(mechanism).__name__} overrides privatize"
                reason = self._probe_mechanism(mechanism)
                if reason is not None:
                    return reason
        # Stock samplers, batch clipping and one model, batch size and
        # dataset shape: what the cluster's cohort pass needs.
        reason = self._cluster._cohort_pass.reason
        if reason is not None:
            return reason
        # The blockwise pre-draw consumes each stream in one run, which
        # only reproduces the per-round interleaving when every consumed
        # stream is private.  A bit generator shared between any two
        # consumed roles (sampler/noise/attack, same worker or across
        # workers — even via distinct Generator wrappers) would be read
        # in a different order, so such cohorts step per round.
        # Never-consumed streams (the noise rng of a worker without a
        # mechanism) are exempt on both paths.
        consumed = [worker._sampler._rng for worker in workers]
        consumed += [
            worker._noise_rng for worker in workers if worker._mechanism is not None
        ]
        if self._attack_rng is not None:
            consumed.append(self._attack_rng)
        streams = {id(generator.bit_generator) for generator in consumed}
        if len(streams) != len(consumed):
            return "workers share RNG streams"
        if type(self._cluster).step is not Cluster.step:
            return f"cluster {type(self._cluster).__name__} overrides step"
        reason = workers[0]._model._single_pass_conflict()
        if reason is not None:
            return reason
        # The in-place update path goes through ParameterServer.step's
        # in_place= branch and SGDOptimizer.step's out= branch; a
        # subclass overriding either would be bypassed (or silently
        # ignore out=), so such servers step per round.
        server = self._server
        if type(server).step is not ParameterServer.step:
            return f"server {type(server).__name__} overrides step"
        if type(server._optimizer).step is not SGDOptimizer.step:
            return (
                f"optimizer {type(server._optimizer).__name__} overrides step"
            )
        return None

    @staticmethod
    def _probe_mechanism(mechanism) -> str | None:
        """Reject mechanisms whose inherited vectorized block draw would
        bypass an overridden ``sample_noise``.

        The generic :meth:`NoiseMechanism.sample_noise_block` performs
        the sequential draws itself, so it honours any ``sample_noise``
        override; the Gaussian/Laplace vectorized blocks are only
        equivalent to *their own* ``sample_noise``.  A subclass that
        overrides ``sample_noise_block`` itself owns the equivalence
        contract (documented on the method) and is accepted.
        """
        cls = type(mechanism)
        for family in (GaussianMechanism, LaplaceMechanism):
            if (
                cls.sample_noise_block is family.sample_noise_block
                and cls.sample_noise is not family.sample_noise
            ):
                return (
                    f"mechanism {cls.__name__} overrides sample_noise but "
                    "inherits the vectorized block draw"
                )
        return None

    @property
    def supports_fused(self) -> bool:
        """Whether :meth:`run` may execute this cohort."""
        return self._reason is None

    @property
    def fused_unsupported_reason(self) -> str | None:
        """Human-readable reason the fused path is unavailable."""
        return self._reason

    # ------------------------------------------------------------------
    # buffers
    # ------------------------------------------------------------------

    def _ensure_buffers(self) -> None:
        if self._buffers_ready:
            return
        workers = self._workers
        num_honest = len(workers)
        dimension = int(self._server.parameters_view.shape[0])
        n = num_honest + self._num_byzantine

        self._dimension = dimension
        self._batch_size = workers[0]._sampler.batch_size
        # The cluster's own pass: one gather source per dataset, shared
        # with the per-round path instead of built twice.
        self._cohort_pass = self._cluster._cohort_pass
        self._all_gradients = np.zeros((n, dimension), dtype=np.float64)
        self._clean = np.empty((num_honest, dimension), dtype=np.float64)
        self._momenta = np.array([w._momentum for w in workers])
        self._momentum_mask = self._momenta > 0.0
        self._any_momentum = bool(self._momentum_mask.any())
        self._all_momentum = bool(self._momentum_mask.all())
        self._noised_indices = [
            index for index, w in enumerate(workers) if w._mechanism is not None
        ]
        self._all_noised = len(self._noised_indices) == num_honest
        if self._any_momentum:
            self._velocity_submitted = np.zeros((num_honest, dimension))
            self._velocity_clean = np.zeros((num_honest, dimension))
            self._momenta_col = self._momenta[:, None]
        self._buffers_ready = True

    def _import_velocities(self) -> None:
        """Load the workers' live momentum buffers into the stacks."""
        for index, worker in enumerate(self._workers):
            if not self._momentum_mask[index]:
                continue
            if worker._velocity_submitted is None:
                self._velocity_submitted[index] = 0.0
                self._velocity_clean[index] = 0.0
            else:
                self._velocity_submitted[index] = worker._velocity_submitted
                self._velocity_clean[index] = worker._velocity_clean

    def _export_state(self, block_indices, r: int) -> None:
        """Write engine-held per-worker state back onto the workers.

        Each worker's ``last_batch`` becomes its dataset rows for round
        ``r`` of ``block_indices`` (the last round entered), indexed out
        only when read: the gather buffer holds one chunk of workers,
        not the cohort.
        """
        for index, worker in enumerate(self._workers):
            if self._any_momentum and self._momentum_mask[index]:
                worker._velocity_submitted = self._velocity_submitted[index].copy()
                worker._velocity_clean = self._velocity_clean[index].copy()
            worker._last_batch = (
                worker._sampler.dataset, block_indices[r, index].copy()
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        num_rounds: int,
        *,
        history: TrainingHistory | None = None,
        block_size: int | None = None,
    ):
        """Execute ``num_rounds`` fused rounds; returns the last round's
        :class:`~repro.distributed.cluster.StepResult`.

        ``history`` enables per-round recording of the mean honest-batch
        loss, which each round's one forward pass scores — the quantity
        ``Cluster.step`` returns as ``honest_losses``, bit for bit.  The
        returned result carries the last round's ``honest_losses`` and
        copies of its ``honest_submitted`` / ``honest_clean`` matrices.

        Worker-visible state (momentum buffers, ``last_batch``) is
        synchronised at the end of the run — and on divergence — so a
        fused run leaves the cluster exactly where the per-round path
        would have.
        """
        if self._reason is not None:
            raise ConfigurationError(
                f"fused execution unavailable: {self._reason}"
            )
        if num_rounds < 1:
            raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
        if block_size is not None and block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self._ensure_buffers()
        workers = self._workers
        # The fused path shares the cluster's telemetry handle.  Phases
        # accumulate over a block and are emitted as one span per phase
        # per block, so telemetry adds O(phases) events per block rather
        # than per round.  Without a handle the timer is the no-op
        # NULL_TIMER and the block counters below are skipped.
        telemetry = self._cluster._telemetry
        timer = phase_timer(telemetry)
        self._observed = telemetry is not None
        if block_size is None:
            block_size = default_block_rounds(
                len(workers),
                self._dimension,
                self._batch_size,
                len(self._noised_indices),
            )
        if self._any_momentum:
            self._import_velocities()
        # One block's pre-drawn batch rows (R, W, b) and, when every
        # worker is noised, its noise (R, W, d): each worker's draws are
        # written straight into them, so round r's cohort rows and noise
        # are one slice and no block allocates a stacked copy.
        buffer_rounds = min(block_size, int(num_rounds))
        index_buffer = np.empty(
            (buffer_rounds, len(workers), self._batch_size), dtype=np.intp
        )
        noise_buffer = (
            np.empty((buffer_rounds, len(workers), self._dimension))
            if self._all_noised
            else None
        )
        noise_blocks = [None] * len(workers)
        block_indices = None
        result = None
        remaining = int(num_rounds)
        # The last round entered, as an index into block_indices.
        last_round = None
        # Loss recording is deferred per block: each round parks its
        # (W,) cohort losses and the whole block's means are computed
        # with one axis reduction — bit-identical to the per-round
        # ``float(np.mean(...))`` (same pairwise summation per
        # contiguous row), pinned by the property suite.
        pending_losses: list[tuple[int, np.ndarray]] = []

        def flush_losses() -> None:
            if not pending_losses:
                return
            means = np.stack([losses for _, losses in pending_losses]).mean(axis=1)
            for (step, _), mean in zip(pending_losses, means):
                history.record_loss(step, float(mean))
            pending_losses.clear()

        try:
            while remaining > 0:
                rounds = min(remaining, block_size)
                if telemetry is not None:
                    self._clip_hits = 0
                    self._winner_rounds = 0
                    self._byzantine_rounds = 0
                    self._dropped_before = getattr(
                        self._network, "dropped_total", None
                    )
                    self._wire_bytes_before = self._cluster._bytes_on_wire_total
                timer.restart()
                # Blockwise pre-draw: every worker's private streams are
                # consumed exactly as the per-round path would, just all
                # at once (see module docstring).
                block_indices = index_buffer[:rounds]
                noise_stack = None if noise_buffer is None else noise_buffer[:rounds]
                for index, worker in enumerate(workers):
                    block_indices[:, index] = worker._sampler.sample_index_block(rounds)
                    if worker._mechanism is None:
                        continue
                    noise = worker._mechanism.sample_noise_block(
                        rounds, self._dimension, worker._noise_rng
                    )
                    if noise_stack is None:
                        noise_blocks[index] = noise
                    else:
                        noise_stack[:, index] = noise
                # The block pre-draw IS the round's sampling/noise RNG
                # work, amortised: charge it to its own phase.
                timer.lap("round.predraw")
                for r in range(rounds):
                    last_round = r
                    is_last = remaining == rounds and r == rounds - 1
                    round_result = self._fused_round(
                        block_indices,
                        noise_blocks,
                        noise_stack,
                        r,
                        pending_losses if history is not None else None,
                        build_result=is_last,
                        timer=timer,
                    )
                    if round_result is not None:
                        result = round_result
                flush_losses()
                if telemetry is not None:
                    self._emit_block_telemetry(telemetry, rounds, timer)
                remaining -= rounds
        finally:
            # Divergence can abort mid-block; worker-visible state and
            # the recorded losses are synchronised for exactly the
            # rounds that did run (matching the per-round path, which
            # never records the diverging round's loss).
            flush_losses()
            if last_round is not None:
                self._export_state(block_indices, last_round)
        return result

    def _emit_block_telemetry(self, telemetry, rounds: int, timer) -> None:
        """Flush one block's accumulated phases and counters as events.

        One span per phase per block (tagged with the rounds it
        covers), plus the counters the block accumulated inline.
        Emission happens *between* blocks, never inside the round loop.
        """
        telemetry.set_step(self._cluster._step)
        timer.emit(telemetry, rounds=rounds)
        telemetry.counter("rounds", rounds)
        if self._clip_hits:
            telemetry.counter("clip.activations", self._clip_hits)
        if self._winner_rounds:
            telemetry.counter("gar.winner_rounds", self._winner_rounds)
        if self._byzantine_rounds:
            telemetry.counter("gar.byzantine_selected", self._byzantine_rounds)
        if self._dropped_before is not None:
            dropped = self._network.dropped_total - self._dropped_before
            if dropped:
                telemetry.counter("network.dropped", dropped)
        wire_bytes = self._cluster._bytes_on_wire_total - self._wire_bytes_before
        if wire_bytes:
            telemetry.counter("wire.bytes", wire_bytes)

    def _fused_round(
        self,
        block_indices,
        noise_blocks,
        noise_stack,
        r: int,
        pending_losses: list | None,
        build_result: bool,
        timer,
    ):
        cluster = self._cluster
        workers = self._workers
        server = self._server
        num_honest = len(workers)
        cluster._step += 1
        step = cluster._step
        parameters = server.parameters_view
        timer.restart()

        # The cohort pass on this round's pre-drawn rows: gathers laps
        # as round.sample, the forward/backward pass and the clip as
        # round.cohort.  ``losses`` is new each round: ``pending_losses``
        # parks it.
        losses = np.empty(num_honest)
        clean = self._clean
        clipped = self._cohort_pass.run(
            parameters, block_indices[r], losses, clean, timer=timer
        )
        if self._observed:
            self._clip_hits += clipped

        # DP noise from the pre-drawn block, written straight into the
        # wire matrix (rows without a mechanism carry the clean row).
        submitted = self._all_gradients[:num_honest]
        if noise_stack is not None:
            np.add(clean, noise_stack[r], out=submitted)
        else:
            submitted[:] = clean
            for index in self._noised_indices:
                np.add(clean[index], noise_blocks[index][r], out=submitted[index])
        timer.lap("round.noise")

        # Momentum on the persistent stacks (v <- m v; v <- v + g).
        if self._any_momentum:
            self._velocity_submitted *= self._momenta_col
            self._velocity_submitted += submitted
            self._velocity_clean *= self._momenta_col
            self._velocity_clean += clean
            if self._all_momentum:
                submitted[:] = self._velocity_submitted
                clean[:] = self._velocity_clean
            else:
                mask = self._momentum_mask
                submitted[mask] = self._velocity_submitted[mask]
                clean[mask] = self._velocity_clean[mask]
            timer.lap("round.momentum")

        # Wire codec: encode the honest block in place (identity's
        # block fast path returns the same object, so the no-codec and
        # identity rounds execute byte-identical buffer operations).
        round_bytes = None
        if self._codec is not None:
            encoded, row_bytes = self._codec.encode_block(
                submitted, step, range(num_honest)
            )
            if encoded is not submitted:
                submitted[:] = encoded
            round_bytes = int(row_bytes.sum())
            timer.lap("round.codec")

        byzantine_gradient = None
        if self._num_byzantine > 0:
            # The attack gets fresh per-round copies, exactly like the
            # per-round path: an attack may legally retain its context
            # across rounds (adaptive attacks), and handing it views of
            # the engine's reused buffers would silently rewrite what it
            # retained.  Two (W, d) copies per attacked round is noise
            # next to the craft itself.
            byzantine_gradient = cluster._craft(
                step, submitted.copy(), clean.copy(), parameters.copy()
            )
            _, byzantine_bytes = cluster._byzantine_rows(
                byzantine_gradient,
                step,
                range(num_honest, num_honest + self._num_byzantine),
                out=self._all_gradients[num_honest:],
            )
            if round_bytes is not None:
                round_bytes += byzantine_bytes
            timer.lap("round.attack")

        if round_bytes is not None:
            cluster._bytes_on_wire_total += round_bytes

        delivered = self._network.deliver(self._all_gradients, step)
        timer.lap("round.network")
        aggregated = server.step(delivered, in_place=True)
        timer.lap("round.server")
        if self._observed:
            winner = cluster._gar_winner(delivered, aggregated)
            if winner is not None:
                self._winner_rounds += 1
                if winner >= num_honest:
                    self._byzantine_rounds += 1

        if pending_losses is not None:
            # Parked only after a successful server update, exactly as
            # the per-round path never records a diverging round.
            pending_losses.append((step, losses))

        if not build_result:
            return None
        return StepResult(
            step=step,
            aggregated=aggregated,
            honest_submitted=submitted.copy(),
            honest_clean=clean.copy(),
            byzantine_gradient=byzantine_gradient,
            bytes_on_wire=round_bytes,
            honest_losses=losses,
        )
