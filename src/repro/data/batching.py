"""Mini-batch sampling.

Each honest worker owns a :class:`BatchSampler` over the training set
and draws an i.i.d. batch per step, matching the paper's model where
every worker samples its batch from the same data distribution ``D``
(Section 2.1).  Sampling is with replacement across steps — successive
batches are independent, which is the assumption behind the i.i.d.
gradient model and behind the DP subsampling analysis.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import DataError

__all__ = ["BatchSampler"]


class BatchSampler:
    """Draws uniform random mini-batches from a dataset.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of points per batch; must be in ``[1, len(dataset)]``.
    rng:
        Private random stream of the owning worker.
    replace_within_batch:
        If ``True``, a single batch may contain the same point twice
        (Poisson-style sampling); the default ``False`` samples each
        batch without replacement, like the paper's implementation.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        rng: np.random.Generator,
        replace_within_batch: bool = False,
    ):
        if batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {batch_size}")
        if not replace_within_batch and batch_size > dataset.num_points:
            raise DataError(
                f"batch_size {batch_size} exceeds dataset size {dataset.num_points} "
                "(use replace_within_batch=True to allow this)"
            )
        self._dataset = dataset
        self._batch_size = int(batch_size)
        self._rng = rng
        self._replace = bool(replace_within_batch)

    @property
    def batch_size(self) -> int:
        """Points per batch."""
        return self._batch_size

    @property
    def dataset(self) -> Dataset:
        """The dataset batches are drawn from."""
        return self._dataset

    def sample_indices(self) -> np.ndarray:
        """Draw one batch's ``(batch_size,)`` index vector."""
        return self._rng.choice(
            self._dataset.num_points, size=self._batch_size, replace=self._replace
        )

    def sample_index_block(self, rounds: int) -> np.ndarray:
        """Pre-draw ``rounds`` batches of indices as one ``(R, b)`` block.

        Row ``r`` is bit-identical to the ``r``-th sequential
        :meth:`sample_indices` call, and the sampler's generator ends in
        the same state either way — which is what lets the fused round
        engine pull all of a block's batch sampling out of the round
        loop (pinned by the hypothesis property suite).

        With-replacement sampling is a single vectorized draw (uniform
        ``choice`` is ``integers`` underneath, filled value-by-value in
        C order, so an ``(R, b)`` fill consumes the same stream as ``R``
        sequential ``(b,)`` fills).  Without replacement each round is
        its own partial-shuffle draw, so the block is assembled from the
        sequential draws themselves — trivially identical, and still
        hoisted out of the hot loop.  A one-round block is that one
        draw as a ``(1, b)`` view, which is how the per-round cohort
        path samples.
        """
        if rounds < 1:
            raise DataError(f"rounds must be >= 1, got {rounds}")
        if self._replace:
            return self._rng.choice(
                self._dataset.num_points,
                size=(rounds, self._batch_size),
                replace=True,
            )
        choice = self._rng.choice
        num_points = self._dataset.num_points
        batch_size = self._batch_size
        if rounds == 1:
            return choice(num_points, size=batch_size, replace=False)[np.newaxis]
        return np.stack(
            [choice(num_points, size=batch_size, replace=False) for _ in range(rounds)]
        )

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw one batch; returns ``(features, labels)`` views."""
        indices = self.sample_indices()
        return self._dataset.features[indices], self._dataset.labels[indices]
