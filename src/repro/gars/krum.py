"""Krum and Multi-Krum (Blanchard et al. 2017).

Krum scores each gradient by the sum of squared distances to its
``n - f - 2`` nearest neighbours (among the other submissions) and
outputs the gradient with the lowest score.  Multi-Krum averages the
``m`` best-scoring gradients (``m = 1`` recovers Krum).

Valid for ``n > 2 f + 2`` with
``k_F(n, f) = 1 / sqrt(2 eta(n, f))``,
``eta = n - f + (f (n-f-2) + f^2 (n-f-1)) / (n - 2f - 2)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AggregationError
from repro.gars.base import GAR
from repro.gars.constants import k_krum, require_krum_valid
from repro.gars.kernels import (
    krum_scores_from_sq_distances,
    pairwise_sq_distances,
    rank_by_score_then_value,
    select_best_by_score_then_value,
)
from repro.typing import Matrix, Vector

__all__ = ["KrumGAR", "krum_scores", "rank_by_score_then_value"]


def krum_scores(gradients: Matrix, f: int) -> np.ndarray:
    """Krum score of each row: sum of its ``n - f - 2`` smallest squared
    distances to the other rows.

    Exposed as a function because Bulyan reuses it.  Distances come
    from the hybrid-exact kernel (:mod:`repro.gars.kernels`), so
    near-duplicate rows score their true tiny distances instead of the
    Gram expansion's cancellation noise.
    """
    return krum_scores_from_sq_distances(pairwise_sq_distances(gradients), f)


class KrumGAR(GAR):
    """Krum (``m = 1``) or Multi-Krum (``m > 1``)."""

    name = "krum"

    def __init__(self, n: int, f: int, m: int = 1):
        if m < 1:
            raise AggregationError(f"m must be >= 1, got {m}")
        if m > n - f:
            raise AggregationError(
                f"multi-krum m must be <= n - f, got m={m}, n={n}, f={f}"
            )
        self._m = int(m)
        super().__init__(n, f)

    @property
    def m(self) -> int:
        """Number of selected gradients to average (1 = classic Krum)."""
        return self._m

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_krum_valid(n, f, cls.name)

    def k_f(self) -> float:
        """``1 / sqrt(2 eta(n, f))`` (Blanchard et al.)."""
        return k_krum(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        scores = krum_scores(gradients, self._f)
        if self._m == 1:
            # Winner-only selection; bit-identical to rank[...][0].
            return gradients[select_best_by_score_then_value(scores, gradients)].copy()
        order = rank_by_score_then_value(scores, gradients)
        return gradients[order[: self._m]].mean(axis=0)
