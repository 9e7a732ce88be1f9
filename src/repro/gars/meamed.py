"""Meamed — mean around the median (Xie et al. 2018, "Generalized
Byzantine-tolerant SGD").

Per coordinate: compute the median of the ``n`` submitted values, then
average the ``n - f`` values closest to that median.  Valid for
``2 f <= n - 1`` with ``k_F(n, f) = 1 / sqrt(10 (n - f))``.
"""

from __future__ import annotations

from repro.gars.base import GAR
from repro.gars.constants import k_meamed, require_majority_honest
from repro.gars.kernels import mean_around_anchor, median
from repro.typing import Matrix, Vector

__all__ = ["MeamedGAR", "mean_around_anchor"]


class MeamedGAR(GAR):
    """Coordinate-wise mean of the ``n - f`` values nearest the median."""

    name = "meamed"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)

    def k_f(self) -> float:
        """``1 / sqrt(10 (n - f))``."""
        return k_meamed(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        return mean_around_anchor(gradients, median(gradients), self._n - self._f)
