"""Discrete-Gaussian lattice codec per D2P-Fed.

D2P-Fed's wire mechanism: quantize each coordinate onto an integer
lattice of width ``granularity`` with *unbiased* stochastic rounding,
then (optionally) add integer noise drawn from the discrete Gaussian,
so the message that crosses the wire is a vector of small integers.
With ``sigma = 0`` it degrades to a pure unbiased lattice quantizer.

The codec's noise is not accounted in any
:class:`~repro.pipeline.results.PrivacyReport`: a run's reported
(ε, δ) covers only the workers'
:class:`~repro.privacy.mechanisms.NoiseMechanism`, so this codec claims
no privacy guarantee of its own.

The discrete-Gaussian sampler is the Canonne–Kapralov–Steinke
rejection scheme (discrete-Laplace proposals, Gaussian acceptance),
vectorized over rejection batches.  Its draw count per message is
variable, which is exactly why this codec uses a *private* generator
per ``(step, worker)`` — no message's rejections can shift another
message's randomness, whatever the encoding order.

Wire bytes are data-dependent: the integers of a row are framed with
just enough bits for the row's largest magnitude (sign included), plus
an 8-byte header for the frame descriptor — so the accounting tests
can recompute the exact count from the encoded row alone.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import FLOAT_BYTES, GradientCodec
from repro.exceptions import ConfigurationError
from repro.typing import Vector, is_finite_number

__all__ = ["DiscreteGaussianCodec", "sample_discrete_gaussian"]


def sample_discrete_gaussian(
    rng: np.random.Generator, sigma: float, size: int
) -> np.ndarray:
    """``size`` exact discrete-Gaussian draws with parameter ``sigma``.

    Canonne–Kapralov–Steinke: propose from the discrete Laplace with
    scale ``t = floor(sigma) + 1`` (difference of two geometrics),
    accept with probability ``exp(-(|y| - sigma²/t)² / (2 sigma²))``.
    Vectorized: each loop iteration proposes a whole batch and keeps
    the accepted prefix, so the expected number of iterations is O(1).
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.zeros(size, dtype=np.int64)
    t = int(np.floor(sigma)) + 1
    geometric_p = -np.expm1(-1.0 / t)  # 1 - exp(-1/t), stably
    log_keep = np.log1p(-geometric_p)
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        batch = 2 * (size - filled) + 16
        uniforms = rng.random((3, batch))
        geometric = np.floor(np.log1p(-uniforms[:2]) / log_keep).astype(np.int64)
        proposal = geometric[0] - geometric[1]
        accept = np.exp(
            -((np.abs(proposal) - sigma * sigma / t) ** 2) / (2.0 * sigma * sigma)
        )
        accepted = proposal[uniforms[2] < accept]
        take = min(accepted.size, size - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


class DiscreteGaussianCodec(GradientCodec):
    """Stochastic lattice rounding plus discrete-Gaussian wire noise.

    Parameters
    ----------
    granularity:
        Lattice width in gradient units (> 0).  The default 1/128 keeps
        quantization error well under typical DP noise scales.
    sigma:
        Discrete-Gaussian parameter in gradient units (>= 0); the
        integer-lattice parameter is ``sigma / granularity``.  Zero
        (the default) sends the rounded lattice point unnoised.
    """

    name = "discrete-gaussian"
    lossless = False
    stochastic = True

    def __init__(
        self,
        granularity: float = 1.0 / 128.0,
        sigma: float = 0.0,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ):
        super().__init__(rng, seed=seed)
        if not is_finite_number(granularity) or not granularity > 0.0:
            raise ConfigurationError(
                f"granularity must be a finite number > 0, got {granularity!r}"
            )
        if not is_finite_number(sigma) or sigma < 0.0:
            raise ConfigurationError(
                f"sigma must be a finite number >= 0, got {sigma!r}"
            )
        self._granularity = float(granularity)
        self._sigma = float(sigma)

    @property
    def granularity(self) -> float:
        """Lattice width in gradient units."""
        return self._granularity

    @property
    def sigma(self) -> float:
        """Discrete-Gaussian parameter in gradient units."""
        return self._sigma

    def row_bytes(self, levels: np.ndarray) -> int:
        """Exact frame size of one row of lattice integers.

        ``bit_length`` of the largest magnitude plus a sign bit per
        coordinate (minimum 1 bit), rounded up to whole bytes, plus the
        8-byte frame header.  Recomputable from the encoded row via
        ``round(row / granularity)`` — the accounting tests do.
        """
        levels = np.asarray(levels)
        max_abs = int(np.abs(levels).max()) if levels.size else 0
        bits = max(1, max_abs.bit_length() + 1)
        return FLOAT_BYTES + -(-levels.size * bits // 8)

    def encode_row(self, vector: Vector, step: int, worker: int) -> tuple[Vector, int]:
        """Round to the lattice (unbiased) and add discrete noise."""
        dimension = int(vector.shape[-1])
        generator = self._message_generator(step, worker)
        scaled = vector / self._granularity
        lower = np.floor(scaled)
        levels = (lower + (generator.random(dimension) < scaled - lower)).astype(
            np.int64
        )
        if self._sigma > 0.0:
            levels = levels + sample_discrete_gaussian(
                generator, self._sigma / self._granularity, dimension
            )
        return levels * self._granularity, self.row_bytes(levels)
