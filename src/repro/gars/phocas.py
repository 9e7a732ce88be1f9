"""Phocas (Xie et al. 2018, "Phocas: dimensional Byzantine-resilient
stochastic gradient descent").

Per coordinate: compute the ``f``-trimmed mean, then average the
``n - f`` values closest to it.  Valid for ``2 f <= n - 1``; Appendix A
of the paper uses ``k_F(n, f) = sqrt(4 + (n-2f)^2 / (12 (f+1) (n-f)))``.
"""

from __future__ import annotations

from repro.gars.base import GAR
from repro.gars.constants import k_phocas, require_majority_honest
from repro.gars.kernels import mean_around_anchor, trimmed_mean
from repro.typing import Matrix, Vector

__all__ = ["PhocasGAR"]


class PhocasGAR(GAR):
    """Coordinate-wise mean of the ``n - f`` values nearest the trimmed mean."""

    name = "phocas"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)

    def k_f(self) -> float:
        """``sqrt(4 + (n - 2f)^2 / (12 (f+1) (n-f)))`` (Appendix A)."""
        return k_phocas(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        anchor = trimmed_mean(gradients, self._f)
        return mean_around_anchor(gradients, anchor, self._n - self._f)
