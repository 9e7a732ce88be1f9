"""Noise-injection mechanisms for local differential privacy.

The Gaussian mechanism implements Eq. (6) of the paper exactly:

.. math::

    M(\\xi) = h(\\xi) + y, \\quad y \\sim N(0, s^2 I_d), \\quad
    s = \\frac{\\Delta_2 h \\sqrt{2 \\log(1.25/\\delta)}}{\\epsilon}

which with ``Delta_2 h = 2 G_max / b`` gives the paper's
``s = 2 G_max sqrt(2 log(1.25/delta)) / (b epsilon)``.  It is
``(epsilon, delta)``-DP for ``(epsilon, delta) in (0, 1)^2``
(Dwork & Roth 2014, Appendix A).

The Laplace mechanism (Remark 3's alternative) adds per-coordinate
``Laplace(Delta_1 h / epsilon)`` noise and is pure ``epsilon``-DP.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import PrivacyError
from repro.privacy.sensitivity import (
    batch_mean_l1_sensitivity,
    batch_mean_l2_sensitivity,
)
from repro.typing import Vector

__all__ = ["NoiseMechanism", "GaussianMechanism", "LaplaceMechanism"]


class NoiseMechanism(ABC):
    """A local randomizer: adds calibrated noise to a gradient vector."""

    @property
    @abstractmethod
    def epsilon(self) -> float:
        """Per-invocation privacy parameter ``epsilon``."""

    @property
    @abstractmethod
    def delta(self) -> float:
        """Per-invocation failure parameter ``delta`` (0 for pure DP)."""

    @property
    @abstractmethod
    def per_coordinate_variance(self) -> float:
        """Variance of the injected noise on each coordinate."""

    @abstractmethod
    def sample_noise(self, dimension: int, rng: np.random.Generator) -> Vector:
        """Draw a noise vector of the given dimension."""

    def sample_noise_block(
        self, rounds: int, dimension: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a ``(rounds, dimension)`` block of noise in one call.

        Bit-identical to ``rounds`` sequential :meth:`sample_noise`
        calls on the same generator: row ``r`` of the block equals the
        ``r``-th sequential draw, and the generator is left in the same
        state either way.  The fused round engine pre-draws each
        worker's whole block of per-round noise up front, which is only
        sound because of this equivalence (pinned by the hypothesis
        property suite).

        The base implementation literally performs the sequential
        draws, so any custom mechanism is block-safe by construction;
        :class:`GaussianMechanism` and :class:`LaplaceMechanism`
        override it with a single vectorized draw, which is equivalent
        because NumPy ``Generator`` streams are consumed value-by-value
        in C order — an ``(R, d)`` fill reads the identical stream as
        ``R`` sequential ``(d,)`` fills.  A subclass of either that
        overrides :meth:`sample_noise` gets the sequential draws back.
        """
        if rounds < 1:
            raise PrivacyError(f"rounds must be >= 1, got {rounds}")
        return np.stack(
            [self.sample_noise(dimension, rng) for _ in range(rounds)]
        )

    def privatize(self, gradient: Vector, rng: np.random.Generator) -> Vector:
        """Return ``gradient + noise``; does not modify the input."""
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.ndim != 1:
            raise ValueError(f"gradient must be 1-D, got shape {gradient.shape}")
        return gradient + self.sample_noise(gradient.shape[0], rng)

    def total_noise_variance(self, dimension: int) -> float:
        """``E ||y||^2 = d * (per-coordinate variance)``.

        This is the quantity that enters the numerator of the VN ratio
        in Eq. (8).
        """
        if dimension < 1:
            raise PrivacyError(f"dimension must be >= 1, got {dimension}")
        return dimension * self.per_coordinate_variance


class GaussianMechanism(NoiseMechanism):
    """The Gaussian mechanism of Section 2.3.

    Parameters
    ----------
    epsilon, delta:
        Per-step privacy budget; the classical calibration requires
        both in ``(0, 1)`` (Remark 3), enforced here.
    l2_sensitivity:
        L2 sensitivity ``Delta_2 h`` of the query being privatised.
    """

    def __init__(self, epsilon: float, delta: float, l2_sensitivity: float):
        if not 0.0 < epsilon < 1.0:
            raise PrivacyError(
                f"the Gaussian mechanism requires epsilon in (0, 1), got {epsilon}"
            )
        if not 0.0 < delta < 1.0:
            raise PrivacyError(
                f"the Gaussian mechanism requires delta in (0, 1), got {delta}"
            )
        if l2_sensitivity <= 0:
            raise PrivacyError(f"l2_sensitivity must be positive, got {l2_sensitivity}")
        self._epsilon = float(epsilon)
        self._delta = float(delta)
        self._sensitivity = float(l2_sensitivity)
        self._sigma = (
            self._sensitivity * math.sqrt(2.0 * math.log(1.25 / self._delta)) / self._epsilon
        )

    @classmethod
    def for_clipped_gradients(
        cls, epsilon: float, delta: float, g_max: float, batch_size: int
    ) -> "GaussianMechanism":
        """Calibrate for the batch-mean of ``G_max``-clipped gradients.

        Uses the ``2 G_max / b`` sensitivity of Section 2.3, yielding
        the paper's noise scale
        ``s = 2 G_max sqrt(2 log(1.25/delta)) / (b epsilon)``.
        """
        return cls(epsilon, delta, batch_mean_l2_sensitivity(g_max, batch_size))

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def l2_sensitivity(self) -> float:
        """The calibrated query sensitivity."""
        return self._sensitivity

    @property
    def sigma(self) -> float:
        """Per-coordinate noise standard deviation ``s``."""
        return self._sigma

    @property
    def noise_multiplier(self) -> float:
        """``sigma / sensitivity`` — the RDP accountant's parameter."""
        return self._sigma / self._sensitivity

    @property
    def per_coordinate_variance(self) -> float:
        return self._sigma**2

    def sample_noise(self, dimension: int, rng: np.random.Generator) -> Vector:
        if dimension < 1:
            raise PrivacyError(f"dimension must be >= 1, got {dimension}")
        return self._sigma * rng.standard_normal(dimension)

    def sample_noise_block(
        self, rounds: int, dimension: int, rng: np.random.Generator
    ) -> np.ndarray:
        if type(self).sample_noise is not GaussianMechanism.sample_noise:
            # An overriding sample_noise owns the draws: one per round.
            return super().sample_noise_block(rounds, dimension, rng)
        # One (R, d) ziggurat fill consumes the identical stream as R
        # sequential (d,) fills; IEEE-754 multiplication is commutative,
        # so the in-place scale matches ``sigma * draw`` bit for bit.
        if rounds < 1:
            raise PrivacyError(f"rounds must be >= 1, got {rounds}")
        if dimension < 1:
            raise PrivacyError(f"dimension must be >= 1, got {dimension}")
        block = rng.standard_normal((rounds, dimension))
        block *= self._sigma
        return block

    def __repr__(self) -> str:
        return (
            f"GaussianMechanism(epsilon={self._epsilon}, delta={self._delta}, "
            f"l2_sensitivity={self._sensitivity:.3g}, sigma={self._sigma:.3g})"
        )


class LaplaceMechanism(NoiseMechanism):
    """Per-coordinate Laplace noise: pure ``epsilon``-DP.

    The scale is ``b = Delta_1 h / epsilon`` per coordinate, giving
    per-coordinate variance ``2 b^2``.
    """

    def __init__(self, epsilon: float, l1_sensitivity: float):
        if epsilon <= 0.0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if l1_sensitivity <= 0:
            raise PrivacyError(f"l1_sensitivity must be positive, got {l1_sensitivity}")
        self._epsilon = float(epsilon)
        self._sensitivity = float(l1_sensitivity)
        self._scale = self._sensitivity / self._epsilon

    @classmethod
    def for_clipped_gradients(
        cls, epsilon: float, g_max: float, batch_size: int, dimension: int
    ) -> "LaplaceMechanism":
        """Calibrate via the L1 sensitivity ``2 sqrt(d) G_max / b``."""
        return cls(epsilon, batch_mean_l1_sensitivity(g_max, batch_size, dimension))

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def delta(self) -> float:
        return 0.0

    @property
    def l1_sensitivity(self) -> float:
        """The calibrated query sensitivity."""
        return self._sensitivity

    @property
    def scale(self) -> float:
        """Per-coordinate Laplace scale parameter."""
        return self._scale

    @property
    def per_coordinate_variance(self) -> float:
        return 2.0 * self._scale**2

    def sample_noise(self, dimension: int, rng: np.random.Generator) -> Vector:
        if dimension < 1:
            raise PrivacyError(f"dimension must be >= 1, got {dimension}")
        return rng.laplace(loc=0.0, scale=self._scale, size=dimension)

    def sample_noise_block(
        self, rounds: int, dimension: int, rng: np.random.Generator
    ) -> np.ndarray:
        if type(self).sample_noise is not LaplaceMechanism.sample_noise:
            # An overriding sample_noise owns the draws: one per round.
            return super().sample_noise_block(rounds, dimension, rng)
        # Inverse-CDF sampling is per-value sequential, so the (R, d)
        # fill reads the same stream as R sequential (d,) fills.
        if rounds < 1:
            raise PrivacyError(f"rounds must be >= 1, got {rounds}")
        if dimension < 1:
            raise PrivacyError(f"dimension must be >= 1, got {dimension}")
        return rng.laplace(loc=0.0, scale=self._scale, size=(rounds, dimension))

    def __repr__(self) -> str:
        return (
            f"LaplaceMechanism(epsilon={self._epsilon}, "
            f"l1_sensitivity={self._sensitivity:.3g}, scale={self._scale:.3g})"
        )
