"""Worker-shard processes: the compute side of the multiprocess runtime.

A *shard* is one OS process owning a contiguous slice of the honest
cohort (one worker per process in the default process-per-worker
layout).  Each round it copies the parameters from the wire plane, runs
the one in-process worker pipeline (:func:`compute_cohort` — batch
sampling, then the shard's :class:`CohortPass`: gather, stacked
gradient, batch or per-example clip; then DP noise and momentum) on its
own workers, whose one forward pass also scores their sampled batches
at the pre-update parameters, and writes its rows of the
wire/clean/loss arrays.

Bit-identity with the in-process engine rests on two facts:

* seed streams are *path-addressed* (:class:`repro.rng.SeedTree`), so a
  shard rebuilding ``("worker", i, "batch")`` / ``("worker", i,
  "noise")`` from the root seed draws exactly the in-process streams,
  in the same order, regardless of which process consumes them;
* the stacked cohort kernels are row-stable: every per-worker quantity
  (batch gradient, clip rescale, noise add, momentum update, batch
  loss) is computed by per-row reductions whose float evaluation order
  does not depend on how many rows are stacked, so a shard computing
  rows ``[a, b)`` reproduces rows ``[a, b)`` of the full-cohort stack
  bit for bit.  The differential suite (in-process vs multiprocess,
  per-round) is the empirical arbiter of this property.

Control flow runs over one duplex pipe per shard, which no other shard
shares: commands (``("round", step)`` / ``("stop",)``) go in, and every
reply comes out as ``(kind, value, events)`` — ``join``, ``done``,
``stopped`` or ``error``, carrying the shard's telemetry events since
its previous reply.  A shard that dies can therefore break only its own
pipe.  All numerical payloads travel through shared memory.

The spec carries an optional *failure-injection seam* (``fail_step`` /
``fail_mode``) used by the crash-resilience tests: real mid-round
crashes are inherently racy to stage from outside, whereas an injected
``os._exit`` (or hang) at a pinned round makes the degraded trace
deterministic and therefore pinnable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.compression.base import GradientCodec
from repro.data.batching import BatchSampler
from repro.data.datasets import Dataset
from repro.distributed.runtime.wire import PlaneSpec, WirePlane
from repro.distributed.worker import (
    CLIP_MODES,
    CohortPass,
    HonestWorker,
    compute_cohort,
)
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.privacy.mechanisms import NoiseMechanism
from repro.rng import SeedTree
from repro.telemetry.timing import phase_timer

__all__ = ["WorkerShardSpec", "shard_main", "FAIL_MODES", "CRASH_EXIT_CODE"]

#: Supported failure-injection modes: ``"die"`` exits the process
#: abruptly (no message, no rows written); ``"hang"`` blocks until the
#: chief's round timeout kills it.
FAIL_MODES = ("die", "hang")

#: Exit code of a ``"die"``-injected shard, distinguishable from a
#: normal exit (0) and a SIGKILL (-9) in test assertions.
CRASH_EXIT_CODE = 23

#: How often an idle shard checks that its chief is still its parent.
_CHIEF_POLL_SECONDS = 1.0


@dataclass(frozen=True)
class WorkerShardSpec:
    """Picklable recipe for one shard process's slice of the cohort.

    ``worker_ids`` are *global* honest indices (also the shard's row
    indices in the wire plane) and must be contiguous and ascending.
    ``root_seed`` is the experiment's root seed: the shard derives its
    workers' private streams from a fresh :class:`SeedTree` by path, so
    they match the chief-side in-process streams exactly.

    ``fail_step``/``fail_mode`` are the failure-injection seam: at round
    ``fail_step`` the shard fails *before* writing anything (``0``
    means before even joining).  Production specs leave them at
    ``None``.
    """

    shard_id: int
    worker_ids: tuple[int, ...]
    model: Model
    datasets: tuple[Dataset, ...]
    batch_size: int
    root_seed: int
    g_max: float | None = None
    mechanism: NoiseMechanism | None = None
    clip_mode: str = "batch"
    momentum: float = 0.0
    #: Wire codec (picklable: its state is one root seed).  The shard
    #: encodes its own rows before writing them to the plane, so the
    #: chief — and the observing adversary — only ever see what
    #: actually crossed the wire.
    codec: GradientCodec | None = None
    fail_step: int | None = None
    fail_mode: str = "die"
    #: Respawn support: a shard spawned with ``start_step > 0`` fast
    #: forwards its workers' seed streams through the missed rounds
    #: ``1..start_step`` (the draws alone: one batch per worker and one
    #: noise vector per DP worker per round, no gradients) and resets
    #: momentum, so its first served round is bit-identical to a shard
    #: that lived through the outage in-process.
    start_step: int = 0
    #: ``(step, factor)`` pairs from the fault plan's ``slow`` events:
    #: the shard sleeps ``0.01 * factor`` seconds at those rounds before
    #: writing its rows.  Wall-clock only — never touches the numbers.
    slow_steps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.worker_ids:
            raise ConfigurationError("a shard needs at least one worker")
        ids = list(self.worker_ids)
        if ids != list(range(ids[0], ids[0] + len(ids))):
            raise ConfigurationError(
                f"shard worker_ids must be contiguous and ascending, got {ids}"
            )
        if len(self.datasets) != len(ids):
            raise ConfigurationError(
                f"shard has {len(ids)} workers but {len(self.datasets)} datasets"
            )
        if self.clip_mode not in CLIP_MODES:
            raise ConfigurationError(
                f"clip_mode must be one of {CLIP_MODES}, got {self.clip_mode!r}"
            )
        if self.fail_step is not None and self.fail_step < 0:
            raise ConfigurationError(f"fail_step must be >= 0, got {self.fail_step}")
        if self.fail_mode not in FAIL_MODES:
            raise ConfigurationError(
                f"fail_mode must be one of {FAIL_MODES}, got {self.fail_mode!r}"
            )
        if self.start_step < 0:
            raise ConfigurationError(
                f"start_step must be >= 0, got {self.start_step}"
            )
        for step, factor in self.slow_steps:
            if step < 1 or factor <= 0 or not np.isfinite(factor):
                raise ConfigurationError(
                    f"invalid slow event (step={step}, factor={factor})"
                )

    @property
    def rows(self) -> slice:
        """This shard's row range in the wire plane's ``(H, d)`` arrays."""
        return slice(self.worker_ids[0], self.worker_ids[-1] + 1)

    def build_workers(self) -> list[HonestWorker]:
        """Reconstruct this shard's workers with their exact seed streams.

        The workers come with the shard's one :class:`CohortPass`, which
        :func:`compute_cohort` finds through them; a slice the pass
        cannot serve raises :class:`ConfigurationError` here.
        """
        seeds = SeedTree(self.root_seed)
        workers = [
            HonestWorker(
                worker_id=worker_id,
                model=self.model,
                sampler=BatchSampler(
                    self.datasets[local],
                    self.batch_size,
                    seeds.generator("worker", worker_id, "batch"),
                ),
                noise_rng=seeds.generator("worker", worker_id, "noise"),
                g_max=self.g_max,
                mechanism=self.mechanism,
                clip_mode=self.clip_mode,
                momentum=self.momentum,
            )
            for local, worker_id in enumerate(self.worker_ids)
        ]
        CohortPass(workers)
        return workers


def _inject_failure(spec: WorkerShardSpec) -> None:
    """Fire the spec's failure seam (never returns for ``"die"``)."""
    if spec.fail_mode == "die":
        # Abrupt death: no reply, no row writes, skip all
        # cleanup — the closest deterministic stand-in for a SIGKILL.
        os._exit(CRASH_EXIT_CODE)
    while True:  # "hang": outlive any round timeout until the chief kills us
        time.sleep(3600.0)


def shard_main(
    spec: WorkerShardSpec, plane_spec: PlaneSpec, pipe, observed: bool
) -> None:
    """Entry point of one shard process.

    Attaches the wire plane, rebuilds the shard's workers, announces
    itself with a ``join`` reply, then serves ``("round", step)``
    commands from ``pipe`` until a ``("stop",)``, which it answers with
    ``stopped``.  Every reply is ``(kind, value, events)``; it does not
    name the shard, because the pipe does.  Any exception is reported as
    an ``error`` reply so the chief can depart the shard instead of
    timing out on it.  A shard whose chief is gone returns on its own:
    under ``fork`` it inherits the chief's end of its own pipe, so
    end-of-file cannot tell it, and it checks its parent instead.  The
    plane attachment is closed on every exit path; the shard never
    unlinks the segment (the chief owns it).

    ``observed`` turns on the shard's telemetry source: its events,
    tagged ``src="shard:<id>"``, are buffered in a
    :class:`~repro.telemetry.sinks.MemorySink` and shipped with the next
    reply, which the chief merges into the run trace.  Each round is
    timed as one ``round.cohort`` phase through the
    :class:`~repro.telemetry.timing.PhaseTimer` every round path uses.
    Telemetry never touches the workers' RNG streams.
    """
    chief = os.getppid()
    telemetry = sink = None
    if observed:
        from repro.telemetry import MemorySink, Telemetry

        # A respawned incarnation is a new process with a fresh event
        # counter: it gets its own src so the merged trace's per-source
        # seq ordering (validate_events) still holds after a rejoin.
        src = f"shard:{spec.shard_id}"
        if spec.start_step > 0:
            src = f"{src}.r{spec.start_step}"
        sink = MemorySink()
        telemetry = Telemetry(sinks=[sink], src=src)

    def reply(kind: str, value=None) -> None:
        events = []
        if sink is not None:
            events, sink.events = sink.events, []
        pipe.send((kind, value, events))

    try:
        with WirePlane.attach(plane_spec) as plane:
            if spec.fail_step == 0:
                _inject_failure(spec)
            workers = spec.build_workers()
            if spec.start_step > 0:
                _fast_forward(spec, workers)
            rows = spec.rows
            if telemetry is not None:
                telemetry.mark(
                    "shard.start", pid=os.getpid(), workers=list(spec.worker_ids)
                )
            reply("join")
            while True:
                if not pipe.poll(_CHIEF_POLL_SECONDS):
                    if os.getppid() != chief:
                        return
                    continue
                command = pipe.recv()
                if command[0] == "stop":
                    break
                step = command[1]
                if spec.fail_step is not None and step >= spec.fail_step:
                    _inject_failure(spec)
                if telemetry is not None:
                    telemetry.set_step(step)
                timer = phase_timer(telemetry)
                # Copy the chief-published parameters out of shared
                # memory: float64 bits survive the round trip untouched.
                parameters = np.array(plane.parameters)
                submitted, clean, losses = compute_cohort(workers, parameters, step)
                for slow_step, factor in spec.slow_steps:
                    if slow_step == step:
                        time.sleep(0.01 * factor)
                if spec.codec is not None:
                    # Same values, same (step, worker) ids as the
                    # in-process path — the codec's per-message streams
                    # make the shard's rows bit-identical to the
                    # chief-side whole-cohort encode.
                    submitted, row_bytes = spec.codec.encode_block(
                        submitted, step, spec.worker_ids
                    )
                    plane.wire_bytes[rows] = row_bytes
                plane.wire[rows] = submitted
                plane.clean[rows] = clean
                plane.losses[rows] = losses
                timer.lap("round.cohort")
                timer.emit(telemetry)
                if telemetry is not None:
                    telemetry.counter("rounds")
                reply("done", step)
            if telemetry is not None:
                telemetry.mark("shard.stop")
            reply("stopped")
    except KeyboardInterrupt:  # pragma: no cover - chief tears us down
        pass
    except Exception as error:
        message = f"{type(error).__name__}: {error}"
        if telemetry is not None:
            telemetry.warning("shard.error", message)
        try:
            reply("error", message)
        except OSError:  # pragma: no cover - the chief is gone
            pass


def _fast_forward(spec: WorkerShardSpec, workers) -> None:
    """Advance the workers' seed streams through rounds ``1..start_step``.

    A round of :func:`compute_cohort` draws one batch per worker and one
    noise row per DP worker (one ``sample_noise_block(1, d)``), whatever
    the values, so drawing exactly those — the batches as one
    :meth:`BatchSampler.sample_index_block` per worker — leaves every
    stream where the in-process run left it, without a gradient pass.
    Momentum is then reset: a worker absent through the outage
    accumulated none (the in-process engine zeroes its buffers each
    absent round), and zeroed buffers restart the ``v <- m*v + g``
    recursion from the base a fresh run starts from.
    """
    rounds = spec.start_step
    for worker in workers:
        if rounds > 0:
            worker._sampler.sample_index_block(rounds)
        if worker._mechanism is not None:
            for _ in range(rounds):
                worker._mechanism.sample_noise_block(
                    1, spec.model.dimension, worker._noise_rng
                )
        worker.reset()
