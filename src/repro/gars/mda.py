"""MDA — Minimum Diameter Averaging (El-Mhamdi et al. 2020).

MDA selects the subset of ``n - f`` gradients with the smallest
*diameter* (largest pairwise distance within the subset) and returns
the average of that subset.  It is the GAR the paper's experiments use,
because its VN-ratio constant ``k_F(n, f) = (n - f) / (sqrt(8) f)`` is
the largest among the presented rules.

The search is exact and exhaustive over the ``C(n, n - f)`` subsets,
fully vectorized (:func:`repro.gars.kernels.mda_aggregate`): subset
diameters are evaluated as chunked fancy-indexing maxima over one
precomputed distance matrix.  For the paper's ``n = 11, f = 5`` this is
462 subsets; construction refuses plainly infeasible instances (more
than ``10^6`` subsets) rather than silently taking hours.
"""

from __future__ import annotations

import math

from repro.exceptions import AggregationError
from repro.gars.base import GAR
from repro.gars.constants import k_mda, require_majority_honest
from repro.gars.kernels import mda_aggregate
from repro.typing import Matrix, Vector

__all__ = ["MDAGAR"]

_MAX_SUBSETS = 1_000_000


class MDAGAR(GAR):
    """Minimum Diameter Averaging with exhaustive exact search."""

    name = "mda"

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        require_majority_honest(n, f, cls.name)
        if math.comb(n, n - f) > _MAX_SUBSETS:
            raise AggregationError(
                f"mda exhaustive search over C({n}, {n - f}) = "
                f"{math.comb(n, n - f)} subsets is infeasible "
                f"(limit {_MAX_SUBSETS})"
            )

    def k_f(self) -> float:
        """``(n - f) / (sqrt(8) f)`` — the largest among the presented GARs."""
        return k_mda(self._n, self._f)

    def _aggregate(self, gradients: Matrix) -> Vector:
        return mda_aggregate(gradients, self._f)
