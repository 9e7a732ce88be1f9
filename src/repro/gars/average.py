"""Plain averaging — the non-robust baseline.

Averaging is the aggregation used when all workers are assumed honest
(Eq. 1 of the paper).  Blanchard et al. prove that *no* linear
combination of the gradients (averaging included) tolerates even a
single Byzantine worker, so this rule's precondition is ``f = 0``; a
permissive constructor flag lets experiments deliberately run averaging
under attack to demonstrate its failure.
"""

from __future__ import annotations

import math

from repro.exceptions import AggregationError
from repro.gars.base import GAR
from repro.typing import Matrix, Vector

__all__ = ["AverageGAR"]


class AverageGAR(GAR):
    """Coordinate-wise mean of all submitted gradients."""

    name = "average"

    def __init__(self, n: int, f: int = 0, allow_byzantine: bool = False):
        # Averaging is only resilient for f = 0; experiments may bypass
        # this to demonstrate the failure mode.
        if f > 0 and not allow_byzantine:
            raise AggregationError(
                "averaging is not Byzantine resilient for f > 0 "
                "(Blanchard et al. 2017); pass allow_byzantine=True to "
                "run it anyway as a deliberately broken baseline"
            )
        self._allow_byzantine = bool(allow_byzantine)
        super().__init__(n, f)

    def k_f(self) -> float:
        """Infinite for ``f = 0`` (no Byzantine workers to defeat it);
        zero otherwise (no variance level makes averaging robust)."""
        return math.inf if self._f == 0 else 0.0

    def _aggregate(self, gradients: Matrix) -> Vector:
        return gradients.mean(axis=0)
