"""The honest-but-curious parameter server.

The server performs the protocol of Section 2.1 faithfully: gather
``n`` gradients, aggregate with the configured GAR, update the model
parameters with the optimizer, broadcast (implicitly — workers read
``parameters``).  Every backend updates the one parameter buffer in
place, through the optimizer's ``out=`` path.  What a *curious* server
could learn from the gradients it receives is measured separately, on
single-example gradients, by :mod:`repro.analysis.leakage` — the threat
the paper's DP noise is there to blunt.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gars.base import GAR
from repro.optim.sgd import SGDOptimizer
from repro.typing import Matrix, Vector

__all__ = ["ParameterServer"]


class ParameterServer:
    """Aggregates worker gradients and owns the model parameters."""

    def __init__(
        self,
        initial_parameters: Vector,
        gar: GAR,
        optimizer: SGDOptimizer,
    ):
        initial_parameters = np.asarray(initial_parameters, dtype=np.float64)
        if initial_parameters.ndim != 1:
            raise ConfigurationError(
                f"initial_parameters must be 1-D, got shape {initial_parameters.shape}"
            )
        self._parameters = initial_parameters.copy()
        self._gar = gar
        self._optimizer = optimizer
        self._step = 0

    @property
    def parameters(self) -> Vector:
        """Current model parameters (a copy; workers cannot mutate them)."""
        return self._parameters.copy()

    @property
    def parameters_view(self) -> Vector:
        """The live parameter buffer, *without* the defensive copy.

        For the fused round engine's hot loop only: the array is
        mutated in place by every server step, so callers must treat it
        as read-only and must not retain it across rounds.
        Everyone else should read :attr:`parameters`.
        """
        return self._parameters

    @property
    def gar(self) -> GAR:
        """The configured aggregation rule."""
        return self._gar

    @property
    def optimizer(self) -> SGDOptimizer:
        """The configured optimizer."""
        return self._optimizer

    @property
    def step_count(self) -> int:
        """Number of aggregation/update rounds performed."""
        return self._step

    def step(self, gradients: Matrix, update_scale: float = 1.0) -> Vector:
        """One round: aggregate ``gradients`` and update the parameters.

        Returns the aggregated gradient (before the optimizer update),
        which instrumentation uses for VN-ratio and resilience checks.

        ``update_scale`` multiplies the aggregate fed to the optimizer
        (the returned aggregate is unscaled).  Asynchronous server
        policies use it for staleness-weighted damping; the default of
        1.0 takes a scale-free path, so synchronous training is
        bit-identical to the historical behaviour.

        The update is in place: the optimizer writes the parameter
        buffer through :meth:`repro.optim.sgd.SGDOptimizer.step`'s
        ``out=`` path (bit-identical to its allocating path), and an
        array it returns instead (an overriding ``step`` that ignores
        ``out=``) is copied in.  Handed-out :attr:`parameters` copies are
        unaffected; :attr:`parameters_view` readers observe the update.
        A diverging update leaves its non-finite parameters in the
        buffer when the optimizer raises.
        """
        matrix = np.asarray(gradients, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self._gar.n:
            raise ConfigurationError(
                f"expected an ({self._gar.n}, d) gradient matrix, got shape {matrix.shape}"
            )
        if not 0.0 <= update_scale <= 1.0:
            raise ConfigurationError(
                f"update_scale must be in [0, 1], got {update_scale}"
            )
        aggregated = self._gar.aggregate(matrix)
        update = aggregated if update_scale == 1.0 else update_scale * aggregated
        updated = self._optimizer.step(self._parameters, update, out=self._parameters)
        if updated is not self._parameters:
            self._parameters[:] = updated
        self._step += 1
        return aggregated
