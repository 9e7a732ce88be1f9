"""Oracle GAR — the hypothetical rule from Theorem 1's lower bound.

The lower-bound proof considers "a hypothetical GAR F that outputs the
gradient of an honest worker in each step"; the paper's footnote 2
notes such a rule cannot exist in practice because honest identities
are unknown.  It exists here, clearly marked, because it is exactly
what the Theorem 1 benchmark needs: with it, the *only* obstacle to
learning is the DP noise, so the measured error isolates the
``d s^2 / T`` term.
"""

from __future__ import annotations

import math

from repro.exceptions import AggregationError
from repro.gars.base import GAR
from repro.typing import Matrix, Vector

__all__ = ["OracleGAR"]


class OracleGAR(GAR):
    """Outputs the submission of a designated known-honest worker.

    Not statistically robust — it *assumes* the designated index is
    honest.  For simulation and theory validation only.
    """

    name = "oracle"

    def __init__(self, n: int, f: int, honest_index: int = 0):
        super().__init__(n, f)
        if not 0 <= honest_index < n:
            raise AggregationError(
                f"honest_index must be in [0, {n}), got {honest_index}"
            )
        self._honest_index = int(honest_index)

    @property
    def honest_index(self) -> int:
        """The worker index whose gradient is passed through."""
        return self._honest_index

    def k_f(self) -> float:
        """Unbounded: an honest gradient is unbiased whatever the variance."""
        return math.inf

    def _aggregate(self, gradients: Matrix) -> Vector:
        return gradients[self._honest_index].copy()
