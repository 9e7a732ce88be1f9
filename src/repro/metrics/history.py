"""Per-run training history.

Mirrors the paper's measurement protocol (Section 5.1): the average
training loss on the honest workers' sampled batches at *every* step,
and the test ("cross") accuracy every ``eval_every`` steps.

The event-driven simulator (:mod:`repro.simulation`) additionally
records the *virtual wall-clock* at which each server update landed,
so wall-clock-vs-accuracy comparisons between server policies (sync
barrier vs buffered semi-sync vs async) read straight off one history.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrainingHistory"]


class TrainingHistory:
    """Append-only record of one training run's metrics."""

    def __init__(self):
        self._loss_steps: list[int] = []
        self._losses: list[float] = []
        self._accuracy_steps: list[int] = []
        self._accuracies: list[float] = []
        self._virtual_time_steps: list[int] = []
        self._virtual_times: list[float] = []

    def record_loss(self, step: int, loss: float) -> None:
        """Record the training loss observed at ``step`` (1-indexed)."""
        if self._loss_steps and step <= self._loss_steps[-1]:
            raise ValueError(
                f"loss steps must be increasing, got {step} after {self._loss_steps[-1]}"
            )
        self._loss_steps.append(int(step))
        self._losses.append(float(loss))

    def record_accuracy(self, step: int, accuracy: float) -> None:
        """Record test accuracy measured at ``step``."""
        if self._accuracy_steps and step <= self._accuracy_steps[-1]:
            raise ValueError(
                f"accuracy steps must be increasing, got {step} "
                f"after {self._accuracy_steps[-1]}"
            )
        self._accuracy_steps.append(int(step))
        self._accuracies.append(float(accuracy))

    def record_virtual_time(self, step: int, time: float) -> None:
        """Record the virtual wall-clock at which ``step``'s update landed.

        Steps must be strictly increasing; times non-decreasing (a
        zero-latency simulation legitimately pins the clock at 0).
        """
        if self._virtual_time_steps and step <= self._virtual_time_steps[-1]:
            raise ValueError(
                f"virtual-time steps must be increasing, got {step} "
                f"after {self._virtual_time_steps[-1]}"
            )
        if self._virtual_times and time < self._virtual_times[-1]:
            raise ValueError(
                f"virtual time must not decrease, got {time} "
                f"after {self._virtual_times[-1]}"
            )
        self._virtual_time_steps.append(int(step))
        self._virtual_times.append(float(time))

    @property
    def loss_steps(self) -> np.ndarray:
        """Steps at which losses were recorded."""
        return np.asarray(self._loss_steps, dtype=np.int64)

    @property
    def losses(self) -> np.ndarray:
        """Training losses, one per recorded step."""
        return np.asarray(self._losses, dtype=np.float64)

    @property
    def accuracy_steps(self) -> np.ndarray:
        """Steps at which accuracies were recorded."""
        return np.asarray(self._accuracy_steps, dtype=np.int64)

    @property
    def accuracies(self) -> np.ndarray:
        """Test accuracies, one per evaluation."""
        return np.asarray(self._accuracies, dtype=np.float64)

    @property
    def virtual_time_steps(self) -> np.ndarray:
        """Steps at which virtual times were recorded."""
        return np.asarray(self._virtual_time_steps, dtype=np.int64)

    @property
    def virtual_times(self) -> np.ndarray:
        """Virtual wall-clock of each recorded server update."""
        return np.asarray(self._virtual_times, dtype=np.float64)

    @property
    def final_virtual_time(self) -> float:
        """Virtual wall-clock at the last recorded update."""
        if not self._virtual_times:
            raise ValueError("no virtual times recorded")
        return self._virtual_times[-1]

    @property
    def final_loss(self) -> float:
        """Loss at the last recorded step."""
        if not self._losses:
            raise ValueError("no losses recorded")
        return self._losses[-1]

    @property
    def min_loss(self) -> float:
        """Best (lowest) loss over the run."""
        if not self._losses:
            raise ValueError("no losses recorded")
        return min(self._losses)

    @property
    def final_accuracy(self) -> float:
        """Accuracy at the last evaluation."""
        if not self._accuracies:
            raise ValueError("no accuracies recorded")
        return self._accuracies[-1]

    @property
    def max_accuracy(self) -> float:
        """Best accuracy over the run."""
        if not self._accuracies:
            raise ValueError("no accuracies recorded")
        return max(self._accuracies)

    def steps_to_loss(self, threshold: float) -> int | None:
        """First step whose loss is at or below ``threshold`` (None if never)."""
        for step, loss in zip(self._loss_steps, self._losses):
            if loss <= threshold:
                return step
        return None

    def mean_loss_over_last(self, window: int) -> float:
        """Mean loss over the last ``window`` recorded steps."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not self._losses:
            raise ValueError("no losses recorded")
        return float(np.mean(self._losses[-window:]))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "loss_steps": list(self._loss_steps),
            "losses": list(self._losses),
            "accuracy_steps": list(self._accuracy_steps),
            "accuracies": list(self._accuracies),
            "virtual_time_steps": list(self._virtual_time_steps),
            "virtual_times": list(self._virtual_times),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`.

        Every value list must pair with its step list: one that does not
        raises ``ValueError`` naming it.  Payloads written before virtual
        times existed load fine: the time axis just stays empty.
        """
        history = cls()
        payload = {"virtual_time_steps": [], "virtual_times": [], **payload}
        for steps, values, record in (
            ("loss_steps", "losses", history.record_loss),
            ("accuracy_steps", "accuracies", history.record_accuracy),
            ("virtual_time_steps", "virtual_times", history.record_virtual_time),
        ):
            if len(payload[steps]) != len(payload[values]):
                raise ValueError(
                    f"{values} does not pair with {steps} "
                    f"({len(payload[values])} against {len(payload[steps])} entries)"
                )
            for step, value in zip(payload[steps], payload[values]):
                record(step, value)
        return history

    def __len__(self) -> int:
        return len(self._losses)

    def __repr__(self) -> str:
        parts = [f"TrainingHistory(steps={len(self._losses)}"]
        if self._losses:
            parts.append(f", final_loss={self._losses[-1]:.4g}")
        if self._accuracies:
            parts.append(f", final_accuracy={self._accuracies[-1]:.4g}")
        parts.append(")")
        return "".join(parts)
