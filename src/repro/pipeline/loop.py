"""Callback-driven training loop, one for every backend.

:class:`TrainingLoop` owns the round-by-round execution: step the
round core — the in-process cluster, the multiprocess runtime or the
discrete-event simulator — record the paper's per-step training loss,
the mean of the honest workers' batch losses each round returns on
:attr:`StepResult.honest_losses`, and fire the
:mod:`repro.pipeline.callbacks` hooks around every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.distributed.cluster import Cluster, StepResult
from repro.exceptions import ConfigurationError
from repro.metrics.history import TrainingHistory
from repro.models.base import Model
from repro.pipeline.callbacks import Callback, CallbackList

__all__ = ["LoopState", "TrainingLoop"]


@dataclass
class LoopState:
    """Mutable view of a running loop, handed to every callback hook."""

    cluster: Cluster
    model: Model
    history: TrainingHistory
    callbacks: CallbackList
    num_steps: int
    last_result: StepResult | None = field(default=None, repr=False)
    stopped_early: bool = False

    @property
    def step(self) -> int:
        """Rounds completed so far (0 before the first round)."""
        return self.cluster.step_count


class TrainingLoop:
    """Run the rounds of any round core with callback hooks.

    The loop records the mean training loss of the honest workers'
    sampled batches at every step (evaluated at the pre-update
    parameters, per Section 5.1's measurement protocol): the mean of
    the round's :attr:`StepResult.honest_losses`, which the round's own
    cohort pass scored.  Rounds without an honest loss — every honest
    worker absent, or none sampled a batch — record no loss instead of
    a silent ``NaN``.  On the discrete-event simulator a step is one
    server update, and each update's virtual time is recorded beside
    its loss.  ``model`` is the workers' model; the loop hands it to
    the callbacks (``LoopState.model``).
    """

    def __init__(
        self,
        cluster: Cluster,
        model: Model,
        history: TrainingHistory | None = None,
        callbacks: Iterable[Callback] = (),
        checkpoint: str | None = None,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._cluster = cluster
        self._model = model
        self._history = history if history is not None else TrainingHistory()
        self._callbacks = (
            callbacks if isinstance(callbacks, CallbackList) else CallbackList(callbacks)
        )
        self._checkpoint = None if checkpoint is None else str(checkpoint)
        self._checkpoint_every = int(checkpoint_every)

    @property
    def history(self) -> TrainingHistory:
        """The history this loop records into."""
        return self._history

    @property
    def callbacks(self) -> CallbackList:
        """The composed callback list."""
        return self._callbacks

    def run(self, num_steps: int) -> LoopState:
        """Run up to ``num_steps`` rounds; returns the final state.

        A callback returning True from ``should_stop`` ends the run
        before the next round and sets ``state.stopped_early``.

        Routing: with no callbacks attached, eligible clusters execute
        through the fused :class:`repro.distributed.engine.RoundEngine`
        (blocks of rounds, preallocated buffers, blockwise RNG
        pre-draw) — bit-identical to per-round stepping, including the
        recorded losses.  Any attached callback falls back to per-round
        stepping so ``should_stop`` / ``on_step_end`` fire with their
        historical semantics.
        """
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        state = LoopState(
            cluster=self._cluster,
            model=self._model,
            history=self._history,
            callbacks=self._callbacks,
            num_steps=int(num_steps),
        )
        callbacks = self._callbacks
        engine = getattr(self._cluster, "engine", None)
        if (
            len(callbacks) == 0
            # Checkpointing snapshots per-round state the fused engine
            # deliberately keeps in private buffers: step per round.
            and self._checkpoint is None
            and engine is not None
            and engine.supports_fused
        ):
            callbacks.on_train_start(state)
            state.last_result = engine.run(num_steps, history=self._history)
            callbacks.on_train_end(state)
            return state
        self._run_rounds(state, num_steps)
        return state

    def resume(self, num_steps: int) -> LoopState:
        """Restore the loop's checkpoint and finish the run.

        Requires a freshly-built loop (same configuration, same seed)
        whose ``checkpoint`` path holds a snapshot written by
        :meth:`run`.  Every RNG stream, momentum buffer and parameter
        is restored bit-for-bit, so the completed run is identical to
        one that never stopped (the differential suite pins this).
        A damaged snapshot raises
        :class:`~repro.exceptions.TrainingError` or
        :class:`~repro.exceptions.ConfigurationError` naming the file
        and the failing field, before anything is restored
        (:func:`repro.faults.checkpoint.restore_checkpoint`).
        Returns the final state, exactly like :meth:`run`.
        """
        from repro.faults.checkpoint import restore_checkpoint

        if self._checkpoint is None:
            raise ConfigurationError("resume() needs a checkpoint path")
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        restored = restore_checkpoint(self._checkpoint, self._cluster)
        # Replace the history contents in place so callers holding the
        # loop's (or Experiment's) history reference see the restored run.
        self._history.__dict__.update(restored.__dict__)
        state = LoopState(
            cluster=self._cluster,
            model=self._model,
            history=self._history,
            callbacks=self._callbacks,
            num_steps=int(num_steps),
        )
        remaining = num_steps - self._cluster.step_count
        if remaining > 0:
            self._run_rounds(state, remaining)
        return state

    def _run_rounds(self, state: LoopState, rounds: int) -> None:
        """The per-round loop shared by :meth:`run` and :meth:`resume`."""
        callbacks = self._callbacks
        callbacks.on_train_start(state)
        for _ in range(rounds):
            if callbacks.should_stop(state):
                state.stopped_early = True
                break
            callbacks.on_step_start(state)
            result = self._cluster.step()
            state.last_result = result
            if len(result.honest_losses):
                self._history.record_loss(
                    self._cluster.step_count, float(np.mean(result.honest_losses))
                )
            virtual_time = getattr(result, "virtual_time", None)
            if virtual_time is not None:
                self._history.record_virtual_time(
                    self._cluster.step_count, virtual_time
                )
            callbacks.on_step_end(state, result)
            if (
                self._checkpoint is not None
                and self._cluster.step_count % self._checkpoint_every == 0
            ):
                self._save_checkpoint()
        callbacks.on_train_end(state)

    def _save_checkpoint(self) -> None:
        """Snapshot the full training state atomically (see repro.faults)."""
        from repro.faults.checkpoint import capture_cluster_state, save_checkpoint

        save_checkpoint(
            self._checkpoint,
            {
                "step": self._cluster.step_count,
                "cluster": capture_cluster_state(self._cluster),
                "history": self._history.to_dict(),
            },
        )
        telemetry = getattr(self._cluster, "telemetry", None)
        if telemetry is not None:
            telemetry.counter("checkpoint.saved", step=self._cluster.step_count)
