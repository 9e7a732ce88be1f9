"""Pre-vectorization reference implementations of the hot GAR paths.

These are the original per-row / per-step Python implementations that
:mod:`repro.gars.kernels` replaced, kept verbatim (modulo imports) as
test oracles: the property-based tests (:mod:`tests.test_property_gars`)
and the kernel unit tests (:mod:`tests.test_kernels`) assert the
vectorized kernels agree with them on random ``(n, f, d)`` inputs.

Nothing in the library imports this module.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.exceptions import AggregationError
from repro.typing import Matrix, Vector

__all__ = [
    "REFERENCE_AGGREGATORS",
    "bulyan_aggregate_reference",
    "geometric_median_reference",
    "krum_aggregate_reference",
    "krum_scores_reference",
    "mda_aggregate_reference",
    "mean_around_anchor_reference",
    "meamed_aggregate_reference",
    "median_aggregate_reference",
    "phocas_aggregate_reference",
    "rank_by_score_then_value_reference",
    "trimmed_mean_aggregate_reference",
]


def krum_scores_reference(gradients: Matrix, f: int) -> np.ndarray:
    """Original Krum scoring: Gram-expansion distances + full sort."""
    n = gradients.shape[0]
    neighbours = n - f - 2
    if neighbours < 1:
        raise AggregationError(
            f"krum scoring needs n - f - 2 >= 1, got n={n}, f={f}"
        )
    squared_norms = np.sum(gradients**2, axis=1)
    distances = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (
        gradients @ gradients.T
    )
    distances = np.maximum(distances, 0.0)
    np.fill_diagonal(distances, np.inf)
    nearest = np.sort(distances, axis=1)[:, :neighbours]
    return nearest.sum(axis=1)


def rank_by_score_then_value_reference(
    scores: np.ndarray, gradients: Matrix
) -> np.ndarray:
    """Original tie-break: Python ``sorted`` over ``(score, tuple(row))``."""
    order = sorted(
        range(len(scores)), key=lambda index: (scores[index], tuple(gradients[index]))
    )
    return np.asarray(order)


def krum_aggregate_reference(gradients: Matrix, f: int, m: int = 1) -> Vector:
    """Original Krum / Multi-Krum aggregation."""
    scores = krum_scores_reference(gradients, f)
    order = rank_by_score_then_value_reference(scores, gradients)
    if m == 1:
        return gradients[int(order[0])].copy()
    return gradients[order[:m]].mean(axis=0)


def geometric_median_reference(
    points: Matrix,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    smoothing: float = 1e-12,
) -> Vector:
    """Original smoothed Weiszfeld loop with per-iteration allocations."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise AggregationError(f"points must be (n, d) with n >= 1, got {points.shape}")
    if max_iterations < 1:
        raise AggregationError(f"max_iterations must be >= 1, got {max_iterations}")
    estimate = points.mean(axis=0)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - estimate[None, :], axis=1)
        weights = 1.0 / np.maximum(distances, smoothing)
        updated = (weights[:, None] * points).sum(axis=0) / weights.sum()
        shift = float(np.linalg.norm(updated - estimate))
        estimate = updated
        if shift <= tolerance:
            break
    return estimate


def mda_aggregate_reference(gradients: Matrix, f: int) -> Vector:
    """Original MDA: Python loop over subsets with a branch-cut."""
    n = gradients.shape[0]
    if f == 0:
        return gradients.mean(axis=0)
    selection_size = n - f
    squared_norms = np.sum(gradients**2, axis=1)
    squared = (
        squared_norms[:, None] + squared_norms[None, :] - 2.0 * (gradients @ gradients.T)
    )
    distances = np.sqrt(np.maximum(squared, 0.0))

    best_diameter = math.inf
    best_mean: Vector | None = None
    for subset in combinations(range(n), selection_size):
        diameter = 0.0
        for position, i in enumerate(subset):
            row = distances[i]
            for j in subset[position + 1 :]:
                value = row[j]
                if value > diameter:
                    diameter = value
                    if diameter > best_diameter:
                        break
            if diameter > best_diameter:
                break
        if diameter > best_diameter:
            continue
        mean = gradients[list(subset)].mean(axis=0)
        if diameter < best_diameter or (
            best_mean is not None and tuple(mean) < tuple(best_mean)
        ):
            best_diameter = diameter
            best_mean = mean
    assert best_mean is not None
    return best_mean


def bulyan_aggregate_reference(gradients: Matrix, n: int, f: int) -> Vector:
    """Original Bulyan: per-pass Gram distance recomputation."""
    theta = n - 2 * f
    beta = theta - 2 * f

    remaining = list(range(n))
    selected: list[int] = []
    for _ in range(theta):
        subset = gradients[remaining]
        if len(remaining) - f - 2 >= 1:
            scores = krum_scores_reference(subset, f)
        else:
            center = subset.mean(axis=0)
            scores = np.sum((subset - center) ** 2, axis=1)
        winner_position = int(
            rank_by_score_then_value_reference(scores, subset)[0]
        )
        selected.append(remaining.pop(winner_position))
    selection = gradients[selected]

    medians = np.median(selection, axis=0)
    deviation = np.abs(selection - medians[None, :])
    closest = np.lexsort((selection, deviation), axis=0)[:beta]
    picked = np.take_along_axis(selection, closest, axis=0)
    return picked.mean(axis=0)


def median_aggregate_reference(gradients: Matrix) -> Vector:
    """Coordinate-wise median (already a single NumPy call)."""
    return np.median(gradients, axis=0)


def trimmed_mean_aggregate_reference(gradients: Matrix, f: int) -> Vector:
    """Original coordinate-wise f-trimmed mean."""
    n = gradients.shape[0]
    if f == 0:
        return gradients.mean(axis=0)
    ordered = np.sort(gradients, axis=0)
    return ordered[f : n - f].mean(axis=0)


def mean_around_anchor_reference(gradients: Matrix, anchor: Vector, keep: int) -> Vector:
    """Original per-coordinate mean of the ``keep`` values nearest ``anchor``."""
    deviation = np.abs(gradients - anchor[None, :])
    closest = np.lexsort((gradients, deviation), axis=0)[:keep]
    picked = np.take_along_axis(gradients, closest, axis=0)
    return picked.mean(axis=0)


def meamed_aggregate_reference(gradients: Matrix, f: int) -> Vector:
    """Original Meamed: median anchor + mean-around-anchor."""
    n = gradients.shape[0]
    medians = np.median(gradients, axis=0)
    return mean_around_anchor_reference(gradients, medians, n - f)


def phocas_aggregate_reference(gradients: Matrix, f: int) -> Vector:
    """Original Phocas: trimmed-mean anchor + mean-around-anchor."""
    n = gradients.shape[0]
    anchor = trimmed_mean_aggregate_reference(gradients, f)
    return mean_around_anchor_reference(gradients, anchor, n - f)


#: name -> ``callable(gradients, n, f) -> Vector``, the property tests'
#: oracle per rule.  Keys match the GAR registry names.
REFERENCE_AGGREGATORS = {
    "average": lambda gradients, n, f: gradients.mean(axis=0),
    "median": lambda gradients, n, f: median_aggregate_reference(gradients),
    "trimmed-mean": lambda gradients, n, f: trimmed_mean_aggregate_reference(gradients, f),
    "meamed": lambda gradients, n, f: meamed_aggregate_reference(gradients, f),
    "phocas": lambda gradients, n, f: phocas_aggregate_reference(gradients, f),
    "krum": lambda gradients, n, f: krum_aggregate_reference(gradients, f),
    "multi-krum": lambda gradients, n, f: krum_aggregate_reference(
        gradients, f, m=n - f
    ),
    "geometric-median": lambda gradients, n, f: geometric_median_reference(gradients),
    "mda": lambda gradients, n, f: mda_aggregate_reference(gradients, f),
    "bulyan": lambda gradients, n, f: bulyan_aggregate_reference(gradients, n, f),
}
