"""Callback protocol for the training loop.

Periodic accuracy evaluation, early stopping, gradient recording and
the VN-ratio tracker are each a :class:`Callback` plugged into
:class:`repro.pipeline.loop.TrainingLoop`, which drives every backend,
the discrete-event simulator included.  Hooks fire in this order per
run::

    on_train_start
    repeat:  should_stop? -> on_step_start -> (cluster step, loss
             recorded) -> on_step_end
    on_train_end

``on_evaluate`` is broadcast to *all* callbacks whenever any callback
records a test-set evaluation (see :class:`AccuracyCallback`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.analysis.monitor import VNTrajectory
    from repro.data.datasets import Dataset
    from repro.distributed.cluster import StepResult
    from repro.pipeline.loop import LoopState

__all__ = [
    "Callback",
    "CallbackList",
    "AccuracyCallback",
    "EarlyStopping",
    "StepResultRecorder",
    "VNRatioCallback",
]


class Callback:
    """Base class: every hook is a no-op; override what you need."""

    def on_train_start(self, state: "LoopState") -> None:
        """Called once before the first round (step count is 0)."""

    def on_step_start(self, state: "LoopState") -> None:
        """Called before each synchronous round."""

    def on_step_end(self, state: "LoopState", result: "StepResult") -> None:
        """Called after each round, once the loss is recorded."""

    def on_evaluate(self, state: "LoopState", step: int, accuracy: float) -> None:
        """Broadcast whenever a test-set evaluation is recorded."""

    def on_train_end(self, state: "LoopState") -> None:
        """Called once after the last round (or after an early stop)."""

    def should_stop(self, state: "LoopState") -> bool:
        """Checked before each round; return True to end the run."""
        return False


class CallbackList(Callback):
    """Composes callbacks; broadcasts each hook in registration order."""

    def __init__(self, callbacks: Iterable[Callback] = ()):
        self._callbacks: list[Callback] = list(callbacks)
        for callback in self._callbacks:
            if not isinstance(callback, Callback):
                raise ConfigurationError(
                    f"callbacks must subclass Callback, got {type(callback).__name__}"
                )

    def append(self, callback: Callback) -> None:
        """Add one more callback at the end of the broadcast order."""
        if not isinstance(callback, Callback):
            raise ConfigurationError(
                f"callbacks must subclass Callback, got {type(callback).__name__}"
            )
        self._callbacks.append(callback)

    def on_train_start(self, state) -> None:
        for callback in self._callbacks:
            callback.on_train_start(state)

    def on_step_start(self, state) -> None:
        for callback in self._callbacks:
            callback.on_step_start(state)

    def on_step_end(self, state, result) -> None:
        for callback in self._callbacks:
            callback.on_step_end(state, result)

    def on_evaluate(self, state, step, accuracy) -> None:
        for callback in self._callbacks:
            callback.on_evaluate(state, step, accuracy)

    def on_train_end(self, state) -> None:
        for callback in self._callbacks:
            callback.on_train_end(state)

    def should_stop(self, state) -> bool:
        return any(callback.should_stop(state) for callback in self._callbacks)

    def __iter__(self) -> Iterator[Callback]:
        return iter(self._callbacks)

    def __len__(self) -> int:
        return len(self._callbacks)


class AccuracyCallback(Callback):
    """Record test accuracy at step 0 and every ``eval_every`` rounds.

    Models that do not implement ``accuracy()`` (pure regression) are
    skipped silently.  Each
    recorded evaluation is re-broadcast via ``on_evaluate``.
    """

    def __init__(self, test_dataset: "Dataset", eval_every: int = 50):
        if eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {eval_every}")
        self._test_dataset = test_dataset
        self._eval_every = int(eval_every)

    def on_train_start(self, state) -> None:
        # A resumed loop re-enters training mid-run (step > 0); its
        # step-0 accuracy is already in the restored history.
        if state.step == 0:
            self._evaluate(state, step=0)

    def on_step_end(self, state, result) -> None:
        if state.step % self._eval_every == 0:
            self._evaluate(state, step=state.step)

    def _evaluate(self, state, step: int) -> None:
        try:
            accuracy = state.model.accuracy(
                state.cluster.parameters,
                self._test_dataset.features,
                self._test_dataset.labels,
            )
        except NotImplementedError:
            return
        state.history.record_accuracy(step, accuracy)
        state.callbacks.on_evaluate(state, step, accuracy)


class EarlyStopping(Callback):
    """Stop when the training loss hits a target or stops improving.

    Parameters
    ----------
    loss_threshold:
        Stop once the per-step loss is at or below this value.
    patience:
        Stop after this many consecutive steps without the best loss
        improving by more than ``min_delta``.
    min_delta:
        Minimum improvement that resets the patience counter.
    """

    def __init__(
        self,
        loss_threshold: float | None = None,
        patience: int | None = None,
        min_delta: float = 0.0,
    ):
        if loss_threshold is None and patience is None:
            raise ConfigurationError(
                "EarlyStopping needs loss_threshold and/or patience"
            )
        if patience is not None and patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be >= 0, got {min_delta}")
        self._loss_threshold = loss_threshold
        self._patience = patience
        self._min_delta = float(min_delta)
        self._best = float("inf")
        self._steps_since_best = 0
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether this callback requested the stop."""
        return self._triggered

    def on_train_start(self, state) -> None:
        self._best = float("inf")
        self._steps_since_best = 0
        self._triggered = False

    def on_step_end(self, state, result) -> None:
        if len(state.history) == 0:
            return
        loss = state.history.final_loss
        if self._loss_threshold is not None and loss <= self._loss_threshold:
            self._triggered = True
        if loss < self._best - self._min_delta:
            self._best = loss
            self._steps_since_best = 0
        else:
            self._steps_since_best += 1
            if self._patience is not None and self._steps_since_best >= self._patience:
                self._triggered = True

    def should_stop(self, state) -> bool:
        return self._triggered


class StepResultRecorder(Callback):
    """Keep every round's :class:`StepResult` (gradients, aggregate)."""

    def __init__(self):
        self._results: list["StepResult"] = []

    @property
    def results(self) -> list["StepResult"]:
        """The recorded rounds, in order (a copy of the list)."""
        return list(self._results)

    def on_train_start(self, state) -> None:
        self._results = []

    def on_step_end(self, state, result) -> None:
        self._results.append(result)


class VNRatioCallback(Callback):
    """Track the per-round VN ratio (Eq. 8) during a run.

    Wraps :class:`repro.analysis.monitor.VNRatioMonitor` as a pluggable
    callback; read :attr:`trajectory` after the run.
    """

    def __init__(self, zero_threshold: float = 1e-15):
        self._zero_threshold = float(zero_threshold)
        self._monitor = None

    @property
    def trajectory(self) -> "VNTrajectory":
        """The recorded VN trajectory (available once training started)."""
        if self._monitor is None:
            raise ConfigurationError("VNRatioCallback has not observed a run yet")
        return self._monitor.trajectory

    def on_train_start(self, state) -> None:
        from repro.analysis.monitor import VNRatioMonitor

        self._monitor = VNRatioMonitor(state.cluster, self._zero_threshold)

    def on_step_end(self, state, result) -> None:
        assert self._monitor is not None
        self._monitor.observe(result)
