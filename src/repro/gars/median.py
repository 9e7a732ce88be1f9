"""Coordinate-wise median (Yin et al. 2018).

Each output coordinate is the median of that coordinate across the
``n`` submitted gradients.  Valid for ``2 f <= n - 1`` with
``k_F(n, f) = 1 / sqrt(n - f)``.
"""

from __future__ import annotations

import numpy as np

from repro.gars.base import GAR
from repro.gars.constants import k_median, require_majority_honest
from repro.typing import Matrix, Vector

__all__ = ["MedianGAR"]


class MedianGAR(GAR):
    """Coordinate-wise median."""

    name = "median"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)

    def k_f(self) -> float:
        """``1 / sqrt(n - f)``."""
        return k_median(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        return np.median(gradients, axis=0)
