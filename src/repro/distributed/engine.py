"""The fused round engine: blocks of synchronous rounds, allocation-free.

The paper's experiments are thousands of *short* rounds (n ~ 25
workers, d ~ 100 parameters), a regime where wall-clock is dominated by
per-round Python and allocator overhead rather than FLOPs.
:class:`RoundEngine` executes the synchronous protocol of
:class:`repro.distributed.cluster.Cluster` in fused blocks of ``R``
rounds that remove that overhead without changing a single output bit:

* **blockwise RNG pre-draw** — each worker's batch indices
  (:meth:`repro.data.batching.BatchSampler.sample_index_block`) and DP
  noise (:meth:`repro.distributed.worker.CohortPass.draw_noise`) for the
  whole block are drawn up front.  This is sound because every worker
  owns private generator streams and NumPy ``Generator`` draws are
  consumed value-by-value, so a block draw reads the identical stream
  as the per-round draws (pinned by hypothesis properties and the
  golden traces).  At large d a block's noise is drawn over up to two
  threads, each worker's rows still from its own stream alone;
* **preallocated round buffers** — one ``(n, d)`` wire matrix and one
  ``(W, d)`` clean-gradient matrix are reused across every round of the
  run, and one block's ``(R, W, b)`` batch rows and ``(R, W, d)`` noise
  across its blocks;
* **the round's one implementation** — each round runs the
  :class:`~repro.distributed.worker.CohortPass` that serves the workers
  (the one per-round ``Cluster.step`` uses) on the round's pre-drawn
  rows: chunked gathers into reused buffers, one forward/backward pass
  per chunk (the chunks dealt over up to two threads at large d), one
  batched clip, then the pass's epilogue (the noise add and the
  momentum update on the pass's own stack).  The cluster's
  attack → network → server tail (:meth:`RoundCore._tail`) follows on
  the reused wire matrix, and the server updates its parameter buffer
  in place.  Workers' ``last_batch`` is set to the last round's rows
  when the run ends;
* **one instrumented round per run** — only the last round builds a
  :class:`StepResult`, with copies of its matrices.

Every elementary float operation happens in the same order as the
per-round path, so fused execution is *bit-identical* to
``Cluster.step`` — the golden-trace suite replays the committed traces
through the engine unmodified.  What the engine refuses is only what
the block pre-draw cannot reproduce: a fault plan (faults apply per
round), RNG streams shared between workers or roles (the pre-draw would
reorder a shared stream), and an overridden ``Cluster.step``.  Those
report ``supports_fused == False`` and the caller steps per round;
correctness never depends on the fast path.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.distributed.cluster import Cluster, StepResult
from repro.distributed.worker import _cohort_pass
from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.telemetry.timing import phase_timer

__all__ = ["RoundEngine", "default_block_rounds"]

#: Target footprint of one block's pre-drawn RNG buffers (noise and
#: batch indices).  Blocks are sized so the pre-draw stays cache-warm
#: instead of ballooning on large-d configurations.
_BLOCK_BYTES = 8 << 20

#: Hard cap on rounds per block; past this the amortisation is flat.
_MAX_BLOCK_ROUNDS = 256

#: The counters an observed block accumulates, in emission order.
_BLOCK_COUNTERS = (
    "clip.activations",
    "gar.winner_rounds",
    "gar.byzantine_selected",
    "network.dropped",
    "wire.bytes",
)


def default_block_rounds(
    num_workers: int, dimension: int, batch_size: int, num_noised: int
) -> int:
    """Rounds per fused block for a cohort of the given shape."""
    per_round = 8 * (num_noised * dimension + num_workers * batch_size)
    return int(np.clip(_BLOCK_BYTES // max(per_round, 1), 1, _MAX_BLOCK_ROUNDS))


class RoundEngine:
    """Fused executor for a :class:`~repro.distributed.cluster.Cluster`.

    Built lazily by :attr:`Cluster.engine`; holds the preallocated
    buffers.  :meth:`run` executes fused blocks; eligibility is a pure
    function of the cluster's configuration, exposed as
    :attr:`supports_fused` / :attr:`fused_unsupported_reason`.
    """

    def __init__(self, cluster):
        self._cluster = cluster
        self._workers = list(cluster._honest_workers)
        self._reason = self._probe()
        # The cluster caches this engine, so a strong back-reference
        # would make the pair a cycle that only a full collection frees.
        # Taken after the probe: a proxy's type() is not the cluster's.
        self._cluster = weakref.proxy(cluster)
        self._buffers_ready = False

    def _probe(self) -> str | None:
        """Why the fused path cannot run, or ``None`` when it can."""
        cluster = self._cluster
        if cluster._faults is not None:
            # Fault plans zero rows and momentum per round; the fused
            # block pipeline has no per-round injection point.
            return "a fault plan is active (faults apply per round)"
        # The blockwise pre-draw consumes each stream in one run, which
        # only reproduces the per-round interleaving when every consumed
        # stream is private.  A bit generator shared between any two
        # consumed roles (sampler/noise/attack, same worker or across
        # workers — even via distinct Generator wrappers) would be read
        # in a different order, so such cohorts step per round.
        # Never-consumed streams (the noise rng of a worker without a
        # mechanism) are exempt on both paths.
        workers = self._workers
        consumed = [worker._sampler._rng for worker in workers]
        consumed += [
            worker._noise_rng for worker in workers if worker._mechanism is not None
        ]
        if cluster._attack_rng is not None:
            consumed.append(cluster._attack_rng)
        if len({id(generator.bit_generator) for generator in consumed}) != len(consumed):
            return "workers share RNG streams"
        if type(cluster).step is not Cluster.step:
            return f"cluster {type(cluster).__name__} overrides step"
        return None

    @property
    def supports_fused(self) -> bool:
        """Whether :meth:`run` may execute this cohort."""
        return self._reason is None

    @property
    def fused_unsupported_reason(self) -> str | None:
        """Human-readable reason the fused path is unavailable."""
        return self._reason

    def _ensure_buffers(self) -> None:
        if self._buffers_ready:
            return
        workers = self._workers
        self._dimension = int(self._cluster._server.parameters_view.shape[0])
        self._batch_size = workers[0]._sampler.batch_size
        self._wire = np.zeros((self._cluster.n, self._dimension))
        self._clean = np.empty((len(workers), self._dimension))
        self._noised = any(worker._mechanism is not None for worker in workers)
        self._buffers_ready = True

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

        The momentum buffers are the workers' own (rows of their pass's
        stack), and each worker's ``last_batch`` is set when the run
        ends — also on divergence — so a fused run leaves the cluster
        exactly where the per-round path would have.
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
        # The pass that serves the workers now, as compute_cohort finds
        # it: an owner built after the cluster holds their velocity.
        self._cohort_pass, self._positions = _cohort_pass(workers)
        # The fused path shares the cluster's telemetry handle.  Phases
        # accumulate over a block and are emitted as one span per phase
        # per block, so telemetry adds O(phases) events per block rather
        # than per round.  Without a handle the timer is the no-op
        # NULL_TIMER and the block counters are skipped.
        telemetry = self._cluster._telemetry
        timer = phase_timer(telemetry)
        if block_size is None:
            block_size = default_block_rounds(
                len(workers),
                self._dimension,
                self._batch_size,
                len(workers) if self._noised else 0,
            )
        # One block's pre-drawn batch rows (R, W, b) and, when any worker
        # is noised, its noise (R, W, d): the draws are written straight
        # into them, so round r's cohort rows and noise are one slice.
        buffer_rounds = min(block_size, int(num_rounds))
        index_buffer = np.empty(
            (buffer_rounds, len(workers), self._batch_size), dtype=np.intp
        )
        noise_buffer = noise = None
        if self._noised:
            noise_buffer = np.empty((buffer_rounds, len(workers), self._dimension))
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
                self._counts = (
                    None if telemetry is None else dict.fromkeys(_BLOCK_COUNTERS, 0)
                )
                timer.restart()
                # Blockwise pre-draw: every worker's private streams are
                # consumed exactly as the per-round path would, just all
                # at once (see module docstring).
                block_indices = index_buffer[:rounds]
                for index, worker in enumerate(workers):
                    block_indices[:, index] = worker._sampler.sample_index_block(rounds)
                if noise_buffer is not None:
                    noise = noise_buffer[:rounds]
                    self._cohort_pass.draw_noise(noise, self._positions)
                # The block pre-draw IS the round's sampling/noise RNG
                # work, amortised: charge it to its own phase.
                timer.lap("round.predraw")
                for r in range(rounds):
                    last_round = r
                    round_result = self._fused_round(
                        block_indices[r],
                        None if noise is None else noise[r],
                        pending_losses if history is not None else None,
                        remaining == rounds and r == rounds - 1,
                        timer,
                    )
                    if round_result is not None:
                        result = round_result
                flush_losses()
                if telemetry is not None:
                    self._emit_block_telemetry(telemetry, rounds, timer)
                remaining -= rounds
        finally:
            # Divergence can abort mid-block; the recorded losses and
            # last batches cover exactly the rounds that did run
            # (matching the per-round path, which never records the
            # diverging round's loss).  The gather buffer holds one
            # chunk of workers, so a batch is indexed out when read.
            flush_losses()
            if last_round is not None:
                for index, worker in enumerate(workers):
                    worker._last_batch = (
                        worker._sampler.dataset,
                        block_indices[last_round, index].copy(),
                    )
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
        for name, value in self._counts.items():
            if value:
                telemetry.counter(name, value)

    def _fused_round(self, rows, noise, pending_losses, build_result, timer):
        cluster = self._cluster
        cluster._step += 1
        step = cluster._step
        parameters = cluster._server.parameters_view
        num_honest = len(self._workers)
        timer.restart()

        # The cohort pass and its epilogue on this round's pre-drawn
        # rows and noise, straight into the wire matrix's honest rows.
        # ``losses`` is new each round: ``pending_losses`` parks it.
        losses = np.empty(num_honest)
        clean, submitted = self._clean, self._wire[:num_honest]
        cohort, positions = self._cohort_pass, self._positions
        clipped = cohort.run(parameters, rows, losses, clean, positions, timer)
        cohort.finish(clean, submitted, noise, positions, timer)

        # Wire codec: encode the honest block in place (identity's
        # block fast path returns the same object, so the no-codec and
        # identity rounds execute byte-identical buffer operations).
        round_bytes = None
        if cluster._codec is not None:
            encoded, row_bytes = cluster._codec.encode_block(
                submitted, step, range(num_honest)
            )
            if encoded is not submitted:
                submitted[:] = encoded
            round_bytes = int(row_bytes.sum())
            timer.lap("round.codec")

        delivered, aggregated, byzantine_gradient, round_bytes, dropped = (
            cluster._tail(timer, step, parameters, self._wire, clean, round_bytes)
        )
        counts = self._counts
        if counts is not None:
            counts["clip.activations"] += clipped
            winner = cluster._gar_winner(delivered, aggregated)
            if winner is not None:
                counts["gar.winner_rounds"] += 1
                counts["gar.byzantine_selected"] += int(winner >= num_honest)
            counts["network.dropped"] += dropped or 0
            counts["wire.bytes"] += round_bytes or 0

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
