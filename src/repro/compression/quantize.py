"""QSGD-style stochastic quantization: unbiased low-bit gradients.

Each coordinate is scaled by the message's L∞ norm and stochastically
rounded to one of ``levels`` magnitude steps per sign, so the
reconstruction is an *unbiased* estimate of the input —
``E[enc(v)] = v`` coordinate-wise, the property the Hypothesis suite
checks by averaging over seeds.  Unbiasedness is what lets averaging
GARs tolerate the codec with no drift; the price is variance, which
the benchmark's accuracy column makes visible.

Wire format: one 8-byte scale plus ``ceil(log2(2·levels + 1))`` bits
per coordinate (sign and magnitude level share one symbol).  An
all-zero message sends just its scale.

Randomness: message ``(step, worker)`` uses its own slice of the
per-step stream — the ``worker``-th block of ``d`` uniforms — so the
draw is a pure function of (root seed, step, worker) however messages
are grouped, while a whole round costs a single generator
construction.  This mirrors ``LossyNetwork._step_uniforms`` exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.compression.base import FLOAT_BYTES, GradientCodec
from repro.exceptions import ConfigurationError
from repro.typing import Matrix, Vector, is_integer

__all__ = ["StochasticQuantizationCodec"]


class StochasticQuantizationCodec(GradientCodec):
    """Unbiased stochastic quantization to ``levels`` magnitude steps.

    Parameters
    ----------
    levels:
        Quantization levels per sign (QSGD's ``s``).  The default 16
        spends 6 bits per coordinate (33 symbols), a ~10x reduction
        over raw floats before the scale header.
    """

    name = "qsgd"
    lossless = False
    stochastic = True

    def __init__(
        self,
        levels: int = 16,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ):
        super().__init__(rng, seed=seed)
        if not is_integer(levels) or levels < 1:
            raise ConfigurationError(f"levels must be an integer >= 1, got {levels!r}")
        self._levels = int(levels)

    @property
    def levels(self) -> int:
        """Quantization levels per sign."""
        return self._levels

    @property
    def bits_per_coordinate(self) -> int:
        """Wire bits per coordinate: one symbol in {-levels, ..., +levels}."""
        return max(1, math.ceil(math.log2(2 * self._levels + 1)))

    def _row_bytes(self, dimension: int) -> int:
        return FLOAT_BYTES + -(-dimension * self.bits_per_coordinate // 8)

    def _message_uniforms(self, step: int, worker: int, dimension: int) -> np.ndarray:
        """Message ``(step, worker)``'s ``dimension`` rounding uniforms.

        The ``worker``-th block of the per-step stream; every message
        of a round has the same dimension, so blocks never overlap.
        """
        worker = int(worker)
        draws = self._seeds.generator("enc", int(step)).random(
            (worker + 1) * dimension
        )
        return draws[worker * dimension :]

    def _quantize(self, vector: Vector, uniforms: np.ndarray) -> tuple[Vector, int]:
        dimension = int(vector.shape[-1])
        scale = float(np.abs(vector).max()) if dimension else 0.0
        if scale == 0.0:
            # Nothing but the scale header goes on the wire.
            return np.zeros_like(vector), FLOAT_BYTES
        magnitudes = np.abs(vector) * (self._levels / scale)
        lower = np.floor(magnitudes)
        level = lower + (uniforms < magnitudes - lower)
        encoded = np.sign(vector) * level * (scale / self._levels)
        return encoded, self._row_bytes(dimension)

    def encode_row(self, vector: Vector, step: int, worker: int) -> tuple[Vector, int]:
        """Stochastically round one message; unbiased in expectation."""
        dimension = int(vector.shape[-1])
        uniforms = self._message_uniforms(step, worker, dimension)
        return self._quantize(vector, uniforms)

    def encode_block(
        self, matrix: Matrix, step: int, workers: Sequence[int]
    ) -> tuple[Matrix, np.ndarray]:
        """Batch encode with one generator construction per round.

        Bit-identical to the per-row path: each row consumes exactly
        its worker's block of the per-step stream.
        """
        matrix, workers = self._block_arguments(matrix, workers)
        dimension = int(matrix.shape[-1])
        encoded = np.empty_like(matrix)
        nbytes = np.empty(len(workers), dtype=np.int64)
        draws = None
        if workers and dimension:
            draws = self._seeds.generator("enc", int(step)).random(
                (max(workers) + 1) * dimension
            )
        for row, worker in enumerate(workers):
            uniforms = (
                draws[worker * dimension : (worker + 1) * dimension]
                if draws is not None
                else np.empty(0)
            )
            encoded[row], nbytes[row] = self._quantize(matrix[row], uniforms)
        return encoded, nbytes
