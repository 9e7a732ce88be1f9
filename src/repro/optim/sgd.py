"""SGD with (heavy-ball) momentum.

The update is the classical heavy-ball form the paper's experiments
use (learning rate 2, momentum 0.99):

.. math::

    v_t = m \\cdot v_{t-1} + g_t, \\qquad w_{t+1} = w_t - \\gamma_t v_t

With ``m = 0`` this reduces to Eq. (1) of the paper.  Nesterov
momentum is available as an option.  The optimizer owns only the
velocity state; parameters live with the caller (the parameter server),
mirroring the paper's separation between aggregation and update.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, TrainingError
from repro.optim.schedules import ConstantSchedule, LearningRateSchedule
from repro.typing import Vector

__all__ = ["SGDOptimizer"]


class SGDOptimizer:
    """Heavy-ball SGD over a flat parameter vector.

    Parameters
    ----------
    schedule:
        Learning-rate schedule, or a float for a constant rate.
    momentum:
        Momentum coefficient ``m`` in ``[0, 1)``; the paper uses 0.99.
    nesterov:
        Use Nesterov's lookahead form ``w -= gamma (m v + g)``.
    """

    def __init__(
        self,
        schedule: LearningRateSchedule | float,
        momentum: float = 0.0,
        nesterov: bool = False,
    ):
        if isinstance(schedule, (int, float)):
            schedule = ConstantSchedule(float(schedule))
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ConfigurationError("nesterov requires a non-zero momentum")
        self._schedule = schedule
        self._momentum = float(momentum)
        self._nesterov = bool(nesterov)
        self._velocity: Vector | None = None
        self._step_count = 0
        # Scratch buffers for the direction and the scaled update,
        # lazily sized to the parameter dimension on first use.
        self._direction_scratch: Vector | None = None
        self._update_scratch: Vector | None = None

    @property
    def momentum(self) -> float:
        """The momentum coefficient."""
        return self._momentum

    @property
    def schedule(self) -> LearningRateSchedule:
        """The learning-rate schedule."""
        return self._schedule

    @property
    def step_count(self) -> int:
        """Number of updates performed so far."""
        return self._step_count

    @property
    def velocity(self) -> Vector | None:
        """Current velocity buffer (``None`` before the first step)."""
        return None if self._velocity is None else self._velocity.copy()

    def reset(self) -> None:
        """Clear velocity and the step counter."""
        self._velocity = None
        self._step_count = 0
        self._direction_scratch = None
        self._update_scratch = None

    def step(self, parameters: Vector, gradient: Vector, out: Vector | None = None) -> Vector:
        """Apply one update and return the new parameter vector.

        ``out``, when given, receives the updated parameters in place
        (it may be ``parameters`` itself — the parameter server passes
        its live buffer) and no per-step arrays are allocated: the
        velocity, the direction and the scaled update all land in
        buffers owned by the optimizer.  Without ``out`` the update
        lands in a new array, by the same elementary float operations
        in the same order as the historical allocating form, so the two
        are bit-identical — the golden traces hold whichever runs.

        Raises
        ------
        TrainingError
            If the update produces non-finite parameters (divergence).
            The output has already been updated when this raises; a
            diverged run is dead either way.
        """
        parameters = np.asarray(parameters, dtype=np.float64)
        gradient = np.asarray(gradient, dtype=np.float64)
        if parameters.shape != gradient.shape:
            raise ValueError(
                f"parameter/gradient shape mismatch: {parameters.shape} vs {gradient.shape}"
            )
        if out is None:
            out = np.empty_like(parameters)
        elif out.shape != parameters.shape:
            raise ValueError(
                f"out shape {out.shape} does not match parameters {parameters.shape}"
            )
        self._step_count += 1
        rate = self._schedule.rate(self._step_count)
        if self._velocity is None:
            self._velocity = np.zeros_like(parameters)
        if self._update_scratch is None or self._update_scratch.shape != parameters.shape:
            self._direction_scratch = np.empty_like(parameters)
            self._update_scratch = np.empty_like(parameters)
        # In-place heavy-ball: v <- m*v, v <- v + g — the same two
        # elementwise operations the allocating form performs.
        self._velocity *= self._momentum
        self._velocity += gradient
        direction = self._velocity
        if self._nesterov:
            direction = np.multiply(
                self._velocity, self._momentum, out=self._direction_scratch
            )
            direction += gradient
        np.multiply(direction, rate, out=self._update_scratch)
        np.subtract(parameters, self._update_scratch, out=out)
        if not np.all(np.isfinite(out)):
            raise TrainingError(
                f"parameters became non-finite at step {self._step_count}; "
                "the training has diverged"
            )
        return out
