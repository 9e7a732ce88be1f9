"""Vectorized aggregation kernels — the engine behind every GAR hot path.

Every kernel here takes one round's ``(n, d)`` matrix (``n`` worker
submissions of dimension ``d``) and operates on NumPy arrays end to end,
with no per-row Python loops on the hot path.

Kernel inventory
----------------

* :func:`pairwise_sq_distances` — one distance matrix per round, shared
  by Krum, Multi-Krum, Bulyan and MDA.  Uses the Gram expansion
  ``||x||^2 + ||y||^2 - 2 x.y`` for speed, then recomputes the entries
  the expansion cannot resolve (near-duplicate rows, where catastrophic
  cancellation loses all significant digits) with an exact
  ``np.einsum`` difference path.
* :func:`krum_scores_from_sq_distances` — ``np.partition``-based
  neighbour selection instead of a full sort.
* :func:`rank_by_score_then_value` — NumPy-native replacement for the
  Python ``sorted(..., key=(score, tuple(row)))`` tie-break: a stable
  argsort plus ``np.lexsort`` resolution of exact-tie runs only.
* :func:`geometric_median` — Weiszfeld iterations driven by two BLAS
  matrix-vector products per round instead of four broadcast passes.
* :func:`mda_aggregate` — exhaustive minimum-diameter search over a
  precomputed distance matrix.  A search plan (every subset, and the
  flat matrix indices of its pairs) is built once per ``(n, n - f)``
  and cached when it fits ``_MDA_PLAN_ENTRIES``, so a round is one
  gather of pair distances; larger searches stream the same plan in
  bounded chunks.
* :func:`bulyan_select` — iterated-Krum selection that *slices* the
  precomputed distance matrix instead of recomputing distances on
  every pass.
* coordinate-wise kernels (:func:`median`, :func:`trimmed_mean`,
  :func:`mean_around_anchor`) — one sort or selection along the worker
  axis.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from repro.exceptions import AggregationError
from repro.typing import Matrix, Vector

__all__ = [
    "bulyan_select",
    "geometric_median",
    "krum_scores_from_sq_distances",
    "mda_aggregate",
    "mean_around_anchor",
    "median",
    "pairwise_sq_distances",
    "rank_by_score_then_value",
    "trimmed_mean",
]

#: Entries of the Gram-expansion distance matrix smaller than this
#: fraction of their scale (``||x||^2 + ||y||^2``) carry no reliable
#: significant digits (the expansion's rounding error is a few hundred
#: ulps of the scale) and are recomputed exactly.  1e-10 leaves ~4
#: orders of magnitude of safety margin over the worst-case error at
#: d = 10^6 while keeping the exact path off for well-separated rows.
_GRAM_RELIABLE_RTOL = 1e-10

#: Upper bound on the scratch entries held at once by a streamed MDA
#: search (~64 MiB of intp and float64): per subset, its ``n - f`` row
#: indices, and the flat indices and squared distances of its
#: ``pairs = (n - f)(n - f - 1) / 2`` row pairs.
_MDA_CHUNK_FLOATS = 8_000_000

#: Largest MDA search plan, in ``C(n, n - f) * (n - f + pairs)`` index
#: entries (~2 MiB of intp), that is cached for reuse; larger searches
#: stream.  The paper's ``n = 11, f = 5`` plan is 9,702 entries.  The
#: cache keeps at most 8 plans, so it holds at most ~16 MiB.
_MDA_PLAN_ENTRIES = 250_000

#: Upper bound on ``pairs * d`` scratch floats held at once by the
#: exact-distance fallback's difference gather (~64 MiB of float64).
#: Duplicate rows make the fallback routine — e.g. every attacked round
#: carries f identical Byzantine submissions — so a large matrix must
#: not materialise all unreliable pairs in one allocation.  The chunks
#: are part of the result: at d ~ 10^4 the bits ``np.einsum`` returns
#: for a pair depend on how many pairs the call holds.
_EXACT_CHUNK_FLOATS = 8_000_000


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------


def pairwise_sq_distances(gradients: Matrix) -> np.ndarray:
    """Squared Euclidean distance matrix of the rows: ``(n, d) -> (n, n)``.

    Fast path is the Gram expansion (one ``matmul``); entries that the
    expansion cannot resolve — anything below
    ``1e-10 * (||x||^2 + ||y||^2)``, which includes every near-duplicate
    pair — are recomputed exactly from the row differences, so
    near-duplicate rows score 0 (or their true tiny distance) instead of
    cancellation noise.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    if gradients.ndim != 2:
        raise AggregationError(f"gradients must be (n, d), got shape {gradients.shape}")
    sq_norms = np.einsum("nd,nd->n", gradients, gradients)
    sq = sq_norms[:, None] + sq_norms[None, :]
    scale = sq.copy()
    sq -= 2.0 * (gradients @ gradients.T)
    np.maximum(sq, 0.0, out=sq)
    diagonal = np.arange(gradients.shape[0])
    sq[diagonal, diagonal] = 0.0
    unreliable = sq <= _GRAM_RELIABLE_RTOL * scale
    unreliable[diagonal, diagonal] = False
    if unreliable.any():
        ii, jj = np.nonzero(unreliable)
        upper = ii < jj  # the matrix is symmetric; compute each pair once
        ii, jj = ii[upper], jj[upper]
        chunk = max(1, _EXACT_CHUNK_FLOATS // gradients.shape[1])
        for start in range(0, len(ii), chunk):
            i, j = ii[start : start + chunk], jj[start : start + chunk]
            difference = gradients[i] - gradients[j]
            exact = np.einsum("md,md->m", difference, difference)
            sq[i, j] = exact
            sq[j, i] = exact
    return sq


# ---------------------------------------------------------------------------
# Krum family
# ---------------------------------------------------------------------------


def krum_scores_from_sq_distances(sq_distances: np.ndarray, f: int) -> np.ndarray:
    """Krum score of each row from a precomputed distance matrix.

    ``(n, n) -> (n,)``: the sum of the ``n - f - 2`` smallest
    squared distances to the *other* rows.  ``np.partition`` isolates
    the neighbour set in O(n) per row; the selected block is then
    sorted so the summation order (ascending) matches the reference
    full-sort implementation bit for bit.
    """
    sq_distances = np.asarray(sq_distances, dtype=np.float64)
    n = sq_distances.shape[-1]
    neighbours = n - f - 2
    if neighbours < 1:
        raise AggregationError(
            f"krum scoring needs n - f - 2 >= 1, got n={n}, f={f}"
        )
    masked = sq_distances.copy()
    diagonal = np.arange(n)
    masked[diagonal, diagonal] = np.inf  # a row is not its own neighbour
    nearest = np.partition(masked, neighbours - 1, axis=1)[:, :neighbours]
    nearest.sort(axis=1)
    return nearest.sum(axis=1)


def select_best_by_score_then_value(scores: np.ndarray, gradients: Matrix) -> int:
    """Index of the best row: ``rank_by_score_then_value(...)[0]``.

    Classic Krum (``m = 1``) only needs the winner, so the full stable
    argsort — and the scan over every non-winning tie run — is wasted
    work on the hot path.  Equivalence: the stable argsort places the
    minimal-score rows first in submission order, and the tie handler
    re-ranks exactly that run lexicographically; selecting the
    lexicographically-smallest row among the minimal scores (submission
    order when they are fully identical) returns the same index.
    """
    scores = np.asarray(scores)
    tied = np.flatnonzero(scores == scores.min())
    if tied.size == 1:
        return int(tied[0])
    rows = gradients[tied]
    if (rows == rows[0]).all():
        return int(tied[0])
    return int(tied[np.lexsort(rows.T[::-1])[0]])


def rank_by_score_then_value(scores: np.ndarray, gradients: Matrix) -> np.ndarray:
    """Indices sorted by score, breaking exact ties lexicographically.

    Exact score ties are structural, not just numerical flukes: with a
    single Krum neighbour (``n - f - 2 = 1``), mutually-nearest rows
    share the same score.  Breaking ties by the gradient *values*
    (instead of the submission order) keeps every selection-based GAR
    permutation-invariant.

    NumPy-native: a stable argsort orders by score; only runs of
    *exactly* equal scores are re-ranked, each with one ``np.lexsort``
    over the run's rows (first coordinate most significant).  Rows that
    are fully identical keep submission order, matching the semantics
    of the previous Python ``sorted(..., key=(score, tuple(row)))``.
    """
    scores = np.asarray(scores)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    ties = np.flatnonzero(ranked[1:] == ranked[:-1])
    if ties.size:
        run_starts = ties[np.r_[True, np.diff(ties) > 1]]
        for start in run_starts:
            stop = start + 1
            while stop < len(ranked) and ranked[stop] == ranked[start]:
                stop += 1
            block = order[start:stop]
            rows = gradients[block]
            if (rows == rows[0]).all():
                # Fully identical rows keep submission order — exactly
                # what a stable lexsort over equal keys returns, minus
                # the d-key sort.  This is every attacked round's tie
                # run (the f Byzantine submissions are one vector).
                continue
            # lexsort keys are least-significant first: feed the columns
            # reversed so column 0 is the primary key.
            order[start:stop] = block[np.lexsort(rows.T[::-1])]
    return order


# ---------------------------------------------------------------------------
# geometric median (Weiszfeld)
# ---------------------------------------------------------------------------


def geometric_median(
    points: Matrix,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    smoothing: float = 1e-12,
) -> Vector:
    """Smoothed Weiszfeld geometric median of the rows of ``(n, d)``.

    Each iteration needs only two BLAS products over the data —
    ``points @ estimate`` for the distances (via the norm expansion,
    clamped at 0 and floored at ``smoothing``, which both absorbs the
    expansion's cancellation noise near a data point and keeps the
    iteration defined there) and ``weights @ points`` for the
    reweighted average — instead of materialising ``points - estimate``
    and ``weights * points`` temporaries.  It stops once the estimate
    moves at most ``tolerance``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise AggregationError(f"points must be (n, d) with n >= 1, got {points.shape}")
    if max_iterations < 1:
        raise AggregationError(f"max_iterations must be >= 1, got {max_iterations}")
    # The loop runs on a (1, n, d) view: its batched matmul/einsum calls
    # fix the result's last bits, which plain 2-D products would change.
    points = points[None]
    # Center on the mean (the iteration's starting estimate).  The
    # geometric median is translation-equivariant, and centering keeps
    # ||x||^2 on the order of the data spread — without it, a tight
    # cluster at a large offset would lose the distances to catastrophic
    # cancellation in the norm expansion below (the same failure mode
    # pairwise_sq_distances guards against).
    center = points.mean(axis=1)
    points = points - center[:, None, :]
    sq_norms = np.einsum("bnd,bnd->bn", points, points)
    estimate = np.zeros_like(center)
    # The starting estimate is exactly zero, so the first iteration's
    # expansion collapses to the row norms — bit-identically, since
    # every skipped term is a product with 0.0.
    sq_distances = sq_norms
    for iteration in range(max_iterations):
        if iteration:
            sq_distances = (
                sq_norms
                - 2.0 * (points @ estimate[:, :, None])[:, :, 0]
                + np.einsum("bd,bd->b", estimate, estimate)[:, None]
            )
            np.maximum(sq_distances, 0.0, out=sq_distances)
        weights = 1.0 / np.maximum(np.sqrt(sq_distances), smoothing)
        updated = (weights[:, None, :] @ points)[:, 0, :]
        updated /= weights.sum(axis=1)[:, None]
        shift = np.linalg.norm(updated - estimate, axis=1)
        estimate = updated
        if not shift[0] > tolerance:  # a NaN shift stops too
            break
    return (estimate + center)[0]


# ---------------------------------------------------------------------------
# MDA
# ---------------------------------------------------------------------------


def mda_aggregate(gradients: Matrix, f: int) -> Vector:
    """Minimum Diameter Averaging with a vectorized exhaustive search.

    Evaluates every ``(n - f)``-subset's diameter as the square root of
    the largest squared distance among its pairs, gathered from the
    (hybrid-exact) precomputed distance matrix through the search plan
    of :func:`_mda_plan_chunks` — no per-subset Python loop.  sqrt is
    monotone and correctly rounded, so ``sqrt(max)`` equals the
    ``max(sqrt)`` of the pairwise distances bit for bit.  Exact
    diameter ties are broken by the lexicographically smallest subset
    *mean*, same as the reference implementation, so the rule stays
    independent of submission order.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    n = gradients.shape[0]
    if f == 0:
        return gradients.mean(axis=0)
    flat_sq_distances = pairwise_sq_distances(gradients).ravel()
    best_diameter = math.inf
    candidates: list[np.ndarray] = []
    for subsets, pairs in _mda_plan_chunks(n, n - f):
        # ``initial=0.0`` gives a one-row subset (no pairs) diameter 0.
        diameters = np.sqrt(flat_sq_distances[pairs].max(axis=1, initial=0.0))
        block_best = float(diameters.min())
        if block_best < best_diameter:
            best_diameter = block_best
            candidates = [subsets[diameters == best_diameter]]
        elif block_best == best_diameter:
            candidates.append(subsets[diameters == best_diameter])
    if not candidates:  # every diameter is NaN: the distances overflowed
        raise AggregationError("mda received gradients with non-finite distances")
    tied = np.concatenate(candidates, axis=0)
    # Rows stay ascending within each subset: the mean's summation
    # order, and so its last bits, depend on it.
    means = gradients[tied].mean(axis=1)  # (ties, d)
    if len(means) == 1:
        return means[0]
    # Lexicographically smallest mean among the exact-diameter ties.
    winner = np.lexsort(means.T[::-1])[0]
    return means[winner]


def _mda_plan_chunks(n: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``size``-subsets of ``range(n)`` with their pair indices, in
    ``itertools.combinations`` order, as ``(subsets, pairs)`` chunks.

    A plan within ``_MDA_PLAN_ENTRIES`` comes from the cache as one
    chunk; a larger one is enumerated afresh in chunks whose live
    scratch stays within ``_MDA_CHUNK_FLOATS`` entries, so its peak
    memory stays bounded up to ``MDAGAR``'s 10^6-subset cap.
    """
    count = math.comb(n, size)
    pairs = size * (size - 1) // 2
    if count * (size + pairs) <= _MDA_PLAN_ENTRIES:
        yield _mda_plan(n, size)
        return
    subsets = combinations(range(n), size)
    # The next chunk is built while the caller still holds this one:
    # two chunks of indices and one pair-index temporary are live then,
    # more than the one chunk of indices plus its gathered distances.
    chunk = max(1, _MDA_CHUNK_FLOATS // (2 * size + 3 * pairs))
    for start in range(0, count, chunk):
        yield _mda_plan_block(subsets, min(chunk, count - start), n, size)


@lru_cache(maxsize=8)
def _mda_plan(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole ``(n, size)`` search plan, built on first use.

    Cached, so every caller shares the arrays: they are read-only.
    """
    plan = _mda_plan_block(combinations(range(n), size), math.comb(n, size), n, size)
    for table in plan:
        table.flags.writeable = False
    return plan


def _mda_plan_block(
    subsets: Iterator[tuple[int, ...]], take: int, n: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``take`` subsets as a ``(take, size)`` index matrix, and
    the ``(take, size * (size - 1) / 2)`` flat ``n x n`` indices of each
    subset's pairs ``i < j``."""
    block = np.fromiter(
        islice(subsets, take), dtype=np.dtype((np.intp, size)), count=take
    )
    first, second = np.triu_indices(size, 1)
    pairs = block[:, first]
    pairs *= n
    pairs += block[:, second]
    return block, pairs


# ---------------------------------------------------------------------------
# Bulyan selection
# ---------------------------------------------------------------------------


def bulyan_select(gradients: Matrix, f: int, theta: int) -> np.ndarray:
    """Indices of Bulyan's iterated-Krum selection, reusing one distance
    matrix across all ``theta`` passes.

    Each pass scores the remaining rows by *slicing* the precomputed
    matrix instead of recomputing pairwise distances, removes the
    winner, and repeats; when too few rows remain for Krum scoring the
    pass falls back to distance-to-mean, as before.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    sq_distances = pairwise_sq_distances(gradients)
    remaining = np.arange(gradients.shape[0])
    selected = np.empty(theta, dtype=np.intp)
    for pass_index in range(theta):
        subset = gradients[remaining]
        if len(remaining) - f - 2 >= 1:
            scores = krum_scores_from_sq_distances(
                sq_distances[np.ix_(remaining, remaining)], f
            )
        else:
            center = subset.mean(axis=0)
            scores = np.sum((subset - center) ** 2, axis=1)
        winner_position = int(rank_by_score_then_value(scores, subset)[0])
        selected[pass_index] = remaining[winner_position]
        remaining = np.delete(remaining, winner_position)
    return selected


# ---------------------------------------------------------------------------
# coordinate-wise kernels
# ---------------------------------------------------------------------------


def median(gradients: Matrix) -> Vector:
    """Coordinate-wise median over the workers: ``(n, d) -> (d,)``."""
    return np.median(gradients, axis=0)


def trimmed_mean(gradients: Matrix, f: int) -> Vector:
    """Coordinate-wise ``f``-trimmed mean: ``(n, d) -> (d,)``."""
    n = gradients.shape[0]
    if f == 0:
        return gradients.mean(axis=0)
    ordered = np.sort(gradients, axis=0)
    return ordered[f : n - f].mean(axis=0)


def mean_around_anchor(gradients: Matrix, anchor: Vector, keep: int) -> Vector:
    """Per coordinate, average the ``keep`` values closest to ``anchor``.

    ``(n, d)`` with anchor ``(d,)``: Meamed's median, Phocas's trimmed
    mean, Bulyan's median of its selection.  Distance ties are broken by
    the value itself (via a two-key lexsort) so the result is
    permutation-invariant even on equidistant inputs.
    """
    deviation = np.abs(gradients - anchor)
    closest = np.lexsort((gradients, deviation), axis=0)
    picked = np.take_along_axis(gradients, closest[:keep], axis=0)
    return picked.mean(axis=0)
