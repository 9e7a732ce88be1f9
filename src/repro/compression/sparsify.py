"""Top-k sparsification: keep the k largest-magnitude coordinates.

The classic bandwidth reducer — the wire message is k (index, value)
pairs, everything else reconstructs to zero.  Deterministic: each row
keeps the k coordinates that come first in the order "largest
magnitude first, NaN last, equal magnitudes by coordinate index", so
the encoding is a pure function of the input vector and the codec
draws no randomness at all.

A block is selected with one ``np.partition`` over its rows: the k-th
smallest key ``-|v|`` (NaN mapped to ``+inf``) is each row's threshold,
every key below it is kept, and the remaining slots go to the keys
equal to it in coordinate order.  :meth:`TopKCodec.encode_row` is a
one-row block.

The reconstruction error is the best possible for any k-sparse
approximation: ``||enc(v) - v||² = sum of the d-k smallest squared
magnitudes ≤ (1 - k/d) ||v||²`` — the bound the property suite checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.compression.base import FLOAT_BYTES, INDEX_BYTES, GradientCodec
from repro.exceptions import ConfigurationError
from repro.typing import Matrix, Vector, is_finite_number, is_integer

__all__ = ["TopKCodec"]


class TopKCodec(GradientCodec):
    """Keeps the ``k`` largest-magnitude coordinates per message.

    Parameters
    ----------
    k:
        Exact number of coordinates to keep.  ``None`` (default)
        derives it from ``fraction``.
    fraction:
        Fraction of coordinates kept when ``k`` is ``None``:
        ``k = max(1, ceil(fraction * d))``.  The default 1/8 keeps one
        coordinate in eight — a ~5.3x bytes-on-wire reduction once the
        4-byte indices are paid for.
    """

    name = "top-k"
    lossless = False
    stochastic = False

    def __init__(
        self,
        k: int | None = None,
        fraction: float = 0.125,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ):
        super().__init__(rng, seed=seed)
        if k is not None and (not is_integer(k) or k < 1):
            raise ConfigurationError(f"k must be an integer >= 1, got {k!r}")
        if not is_finite_number(fraction) or not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be a finite number in (0, 1], got {fraction!r}"
            )
        self._k = int(k) if k is not None else None
        self._fraction = float(fraction)

    @property
    def k(self) -> int | None:
        """The fixed support size, or ``None`` when fraction-derived."""
        return self._k

    @property
    def fraction(self) -> float:
        """The fraction of coordinates kept when ``k`` is unset."""
        return self._fraction

    def support_size(self, dimension: int) -> int:
        """The number of coordinates kept for a ``dimension``-long vector."""
        if self._k is not None:
            return min(self._k, int(dimension))
        return max(1, math.ceil(self._fraction * int(dimension)))

    def encode_row(self, vector: Vector, step: int, worker: int) -> tuple[Vector, int]:
        """Zero all but the k largest-magnitude coordinates.

        Bytes: k 8-byte values + k 4-byte indices.
        """
        encoded, nbytes = self.encode_block(np.asarray(vector)[None], step, (worker,))
        return encoded[0], int(nbytes[0])

    def encode_block(
        self, matrix: Matrix, step: int, workers: Sequence[int]
    ) -> tuple[Matrix, np.ndarray]:
        """Zero all but each row's k largest-magnitude coordinates.

        One partition finds every row's threshold key; the
        coordinate-order tie fill runs only when some row has more keys
        equal to its threshold than slots left.
        """
        del step
        matrix, workers = self._block_arguments(matrix, workers)
        dimension = int(matrix.shape[1])
        k = self.support_size(dimension)
        row_bytes = min(k, dimension) * (FLOAT_BYTES + INDEX_BYTES)
        nbytes = np.full(len(workers), row_bytes, dtype=np.int64)
        if k >= dimension:
            return matrix.copy(), nbytes
        key = np.abs(matrix)
        np.negative(key, out=key)
        key[np.isnan(key)] = np.inf
        threshold = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
        keep = key < threshold
        ties = key == threshold
        slots = k - np.count_nonzero(keep, axis=1)
        if (np.count_nonzero(ties, axis=1) > slots).any():
            ties &= np.cumsum(ties, axis=1) <= slots[:, None]
        keep |= ties
        return np.where(keep, matrix, 0.0), nbytes
