"""Coordinate-wise trimmed mean (Yin et al. 2018).

For each coordinate, drop the ``f`` smallest and ``f`` largest values
and average the remaining ``n - 2 f``.  Valid for ``2 f <= n - 1`` with
``k_F(n, f) = sqrt((n - 2f)^2 / (2 (f+1) (n-f)))``.
"""

from __future__ import annotations

from repro.gars.base import GAR
from repro.gars.constants import k_trimmed_mean, require_majority_honest
from repro.gars.kernels import trimmed_mean
from repro.typing import Matrix, Vector

__all__ = ["TrimmedMeanGAR"]


class TrimmedMeanGAR(GAR):
    """Coordinate-wise ``f``-trimmed mean."""

    name = "trimmed-mean"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)

    def k_f(self) -> float:
        """``sqrt((n - 2f)^2 / (2 (f+1) (n-f)))``."""
        return k_trimmed_mean(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        return trimmed_mean(gradients, self._f)
