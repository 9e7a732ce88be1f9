"""Bulyan (El-Mhamdi et al. 2018).

A two-stage meta-aggregator: first select ``theta = n - 2 f`` gradients
by repeatedly applying Krum and removing the winner; then output, per
coordinate, the average of the ``beta = theta - 2 f`` values closest to
the coordinate-wise median of the selection.

Valid for ``n >= 4 f + 3`` (which guarantees ``beta >= 3``); shares
Krum's VN constant ``k_F``.
"""

from __future__ import annotations

from repro.gars.base import GAR
from repro.gars.constants import k_bulyan, require_bulyan_valid
from repro.gars.kernels import bulyan_select, mean_around_anchor, median
from repro.typing import Matrix, Vector

__all__ = ["BulyanGAR"]


class BulyanGAR(GAR):
    """Bulyan: iterated-Krum selection + trimmed closest-to-median average."""

    name = "bulyan"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_bulyan_valid(n, f)

    def k_f(self) -> float:
        """Krum's constant, under the stricter ``n >= 4 f + 3`` precondition."""
        return k_bulyan(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        theta = self._n - 2 * self._f
        beta = theta - 2 * self._f

        # Stage 1: iterated Krum selection over one precomputed
        # distance matrix (sliced per pass, never recomputed).
        selection = gradients[bulyan_select(gradients, self._f, theta)]  # (theta, d)

        # Stage 2: per coordinate, average the beta values closest to
        # the median of the selection (ties broken by value so the rule
        # stays permutation-invariant).
        return mean_around_anchor(selection, median(selection), beta)
