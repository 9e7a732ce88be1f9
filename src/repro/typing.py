"""Shared type aliases and small validation helpers.

The library passes gradients around as 1-D ``float64`` numpy arrays and
stacks of gradients as 2-D arrays of shape ``(n_workers, d)``.  The
helpers here centralise the shape/dtype checks so every module reports
malformed inputs the same way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Vector",
    "Matrix",
    "as_vector",
    "as_gradient_matrix",
    "check_finite",
]

# A model parameter vector or a single gradient: shape (d,).
Vector = np.ndarray

# A stack of gradients: shape (n, d).
Matrix = np.ndarray


def as_vector(value: Sequence[float] | np.ndarray, name: str = "vector") -> Vector:
    """Coerce ``value`` to a 1-D float64 array, validating its shape."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    return array


def as_gradient_matrix(
    gradients: Sequence[np.ndarray] | np.ndarray, name: str = "gradients"
) -> Matrix:
    """Stack a sequence of gradient vectors into an ``(n, d)`` matrix.

    Raises
    ------
    ValueError
        If the sequence is empty or the gradients disagree on dimension.
    """
    if isinstance(gradients, np.ndarray) and gradients.ndim == 2:
        matrix = np.asarray(gradients, dtype=np.float64)
    else:
        rows = list(gradients)
        if not rows:
            raise ValueError(f"{name} must contain at least one gradient")
        dims = {np.asarray(row).shape for row in rows}
        if len(dims) != 1 or any(len(shape) != 1 for shape in dims):
            raise ValueError(f"{name} must all be 1-D with equal length, got shapes {dims}")
        matrix = np.stack([np.asarray(row, dtype=np.float64) for row in rows])
    if matrix.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return matrix


def check_finite(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array
