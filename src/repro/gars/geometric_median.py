"""Geometric median via the smoothed Weiszfeld algorithm.

An extension beyond the paper's seven rules: the geometric median
(minimiser of the summed Euclidean distances to the submissions) is the
classical high-dimensional robust aggregator (cf. RFA, Pillutla et al.
2019).  It tolerates any minority of arbitrary outliers in the sense of
a 1/2 breakdown point, so it slots naturally into the same pipeline.

The paper's Appendix A does not derive a ``k_F(n, f)`` constant for it,
and this library does not invent one: :meth:`GeometricMedianGAR.k_f`
conservatively returns 0, i.e. the rule is never *certified* through
the VN-ratio framework even though it is empirically robust — a useful
reminder that the paper's impossibility results speak about the
certificate, not about empirical behaviour.
"""

from __future__ import annotations

from repro.exceptions import AggregationError
from repro.gars.base import GAR
from repro.gars.constants import require_majority_honest
from repro.gars.kernels import geometric_median
from repro.typing import Matrix, Vector

__all__ = ["GeometricMedianGAR", "geometric_median"]


class GeometricMedianGAR(GAR):
    """Aggregate by the (smoothed Weiszfeld) geometric median."""

    name = "geometric-median"

    def __init__(self, n: int, f: int, max_iterations: int = 100, tolerance: float = 1e-9):
        if max_iterations < 1:
            raise AggregationError(f"max_iterations must be >= 1, got {max_iterations}")
        if tolerance <= 0:
            raise AggregationError(f"tolerance must be positive, got {tolerance}")
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)
        super().__init__(n, f)

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)

    def k_f(self) -> float:
        """No published VN-ratio constant in the paper's framework:
        conservatively 0 (the rule is never certified via Eq. 2/8)."""
        return 0.0

    def _aggregate(self, gradients: Matrix) -> Vector:
        return geometric_median(
            gradients,
            max_iterations=self._max_iterations,
            tolerance=self._tolerance,
        )
