"""Gradient aggregation rule (GAR) interface.

A GAR is a deterministic function ``F : R^{d x n} -> R^d`` (Section
2.1).  Each concrete rule declares:

* a **precondition** on ``(n, f)`` — e.g. Krum needs ``n > 2 f + 2``;
* its **VN-ratio constant** ``k_F(n, f)`` — the largest
  variance-to-norm ratio under which the rule is known to be
  ``(alpha, f)``-Byzantine resilient (Eq. 2);
* the **aggregation** itself.

Instances are bound to a fixed ``(n, f)`` at construction so the
precondition is validated once, and misuse (feeding a different number
of gradients) fails loudly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import AggregationError
from repro.typing import Matrix, Vector, as_gradient_matrix

__all__ = ["GAR"]


class GAR(ABC):
    """A deterministic gradient aggregation rule bound to ``(n, f)``."""

    #: Registry name, set by each subclass (e.g. ``"krum"``).
    name: str = "abstract"

    def __init__(self, n: int, f: int):
        if n < 1:
            raise AggregationError(f"n must be >= 1, got {n}")
        if f < 0:
            raise AggregationError(f"f must be >= 0, got {f}")
        if f >= n:
            raise AggregationError(f"f must be < n, got f={f}, n={n}")
        self._n = int(n)
        self._f = int(f)
        self.check_preconditions(self._n, self._f)

    @property
    def n(self) -> int:
        """Total number of workers."""
        return self._n

    @property
    def f(self) -> int:
        """Maximum number of Byzantine workers tolerated."""
        return self._f

    @classmethod
    def check_preconditions(cls, n: int, f: int) -> None:
        """Raise :class:`AggregationError` if ``(n, f)`` violates the rule's
        validity condition.  The base implementation accepts everything;
        subclasses override."""
        del n, f

    @classmethod
    def supports(cls, n: int, f: int) -> bool:
        """``True`` when ``(n, f)`` satisfies the rule's precondition."""
        try:
            cls.check_preconditions(n, f)
        except AggregationError:
            return False
        return 0 <= f < n

    @abstractmethod
    def k_f(self) -> float:
        """The VN-ratio bound ``k_F(n, f)`` of Eq. (2) / Eq. (8).

        ``math.inf`` when the rule tolerates arbitrary variance (e.g.
        MDA with ``f = 0``).
        """

    @abstractmethod
    def _aggregate(self, gradients: Matrix) -> Vector:
        """Aggregate a validated ``(n, d)`` matrix into a ``(d,)`` vector."""

    def aggregate(self, gradients) -> Vector:
        """Aggregate ``n`` worker gradients into one vector.

        Accepts a sequence of ``(d,)`` arrays or an ``(n, d)`` matrix.

        Raises
        ------
        AggregationError
            If the number of gradients differs from ``n`` or any
            gradient is non-finite.
        """
        matrix = as_gradient_matrix(gradients)
        if matrix.shape[0] != self._n:
            raise AggregationError(
                f"{self.name} was built for n={self._n} workers but "
                f"received {matrix.shape[0]} gradients"
            )
        if not np.all(np.isfinite(matrix)):
            raise AggregationError(f"{self.name} received non-finite gradients")
        return self._aggregate(matrix)

    def __call__(self, gradients) -> Vector:
        return self.aggregate(gradients)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, f={self._f})"
