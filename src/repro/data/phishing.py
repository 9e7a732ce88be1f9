"""Synthetic stand-in for the LIBSVM ``phishing`` dataset.

The paper trains logistic regression on ``phishing``: 11 055 points,
68 features (after LIBSVM's one-hot expansion of the original 30
website attributes), feature values in ``[0, 1]``, binary labels with a
roughly 55/45 split, and a linear-model test accuracy plateauing around
93 %.

This environment has no network access, so we generate a *calibrated
synthetic equivalent* (see DESIGN.md §2): the generator below matches
the real dataset's shape and difficulty, which is all the paper's
experiments depend on — the experiments measure how gradient variance
interacts with DP noise and Byzantine attacks, not any property unique
to phishing URLs.

Construction
------------
1. Draw a ground-truth weight vector ``w*`` with moderately sparse
   entries (many website attributes are irrelevant to phishing).
2. Draw ternary raw features in ``{-1, 0, 1}`` (the original dataset's
   attribute encoding) with feature-dependent frequencies, then map
   them to ``{0, 0.5, 1}`` so values live in ``[0, 1]`` like the scaled
   LIBSVM release.
3. Label each point by a Bernoulli draw with probability
   ``sigmoid(LOGIT_STD * z + LOGIT_OFFSET)`` where ``z`` is the
   standardised ground-truth score ``x_raw . w*``; ``LOGIT_STD``
   controls the Bayes error (tuned so logistic regression lands at
   about 93 % test accuracy) and ``LOGIT_OFFSET`` the ~55/45 class
   balance.
4. Flip a small fraction of labels uniformly at random (label noise
   present in any real scrape).
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import DataError
from repro.rng import generator_from_seed

__all__ = [
    "PHISHING_NUM_POINTS",
    "PHISHING_NUM_FEATURES",
    "PHISHING_TRAIN_SIZE",
    "PHISHING_TEST_SIZE",
    "make_phishing_dataset",
]

# Shape constants of the real LIBSVM phishing dataset (paper §5.1).
PHISHING_NUM_POINTS = 11_055
PHISHING_NUM_FEATURES = 68
PHISHING_TRAIN_SIZE = 8_400
PHISHING_TEST_SIZE = 2_655

# Calibration constants (fixed by tests/test_phishing_calibration.py):
# chosen so that a logistic regression reaches ~93 % test accuracy and
# ~55/45 class balance, like the real dataset.  The ground-truth score
# is standardised before the logistic link, so _LOGIT_STD is directly
# the standard deviation of the true logits (larger = cleaner labels)
# and _LOGIT_OFFSET shifts the class balance.
_LOGIT_STD = 12.0
_LOGIT_OFFSET = 0.9
_LABEL_NOISE = 0.005
_RELEVANT_FRACTION = 0.45

#: Rows per block of uniform draws while building the attributes.
_DRAW_ROWS = 1024


def make_phishing_dataset(
    seed: int = 0,
    num_points: int = PHISHING_NUM_POINTS,
    num_features: int = PHISHING_NUM_FEATURES,
) -> Dataset:
    """Generate the synthetic phishing-like dataset.

    Parameters
    ----------
    seed:
        Root seed; the same seed always yields the identical dataset.
    num_points, num_features:
        Shape overrides, mainly for fast tests.  Defaults match the
        real dataset (11 055 x 68).

    Returns
    -------
    Dataset
        Features in ``{0, 0.5, 1}`` of shape ``(num_points,
        num_features)``; labels in ``{0.0, 1.0}``.
    """
    if num_points <= 0:
        raise DataError(f"num_points must be positive, got {num_points}")
    if num_features <= 0:
        raise DataError(f"num_features must be positive, got {num_features}")

    rng = generator_from_seed(seed)

    # Ground-truth weights: a sparse-ish signal over the attributes.
    relevant = rng.random(num_features) < _RELEVANT_FRACTION
    signs = rng.choice([-1.0, 1.0], size=num_features)
    magnitudes = rng.uniform(0.5, 1.5, size=num_features)
    true_weights = np.where(relevant, signs * magnitudes, 0.0)

    # Ternary raw attributes in {-1, 0, 1}, feature-dependent frequencies.
    # The uniforms are drawn in row blocks (the same stream as one
    # full-size draw) and the attributes written in place, so the build
    # holds a single full-size array: every freed full-size temporary is
    # memory the allocator may keep for the rest of the process.
    probability_negative = rng.uniform(0.15, 0.45, size=num_features)
    probability_zero = rng.uniform(0.05, 0.25, size=num_features)
    raw = np.ones((num_points, num_features))
    for start in range(0, num_points, _DRAW_ROWS):
        rows = raw[start : start + _DRAW_ROWS]
        uniform_draws = rng.random(rows.shape)
        rows[uniform_draws < probability_negative + probability_zero] = 0.0
        rows[uniform_draws < probability_negative] = -1.0

    # Bernoulli labels from a logistic ground-truth model on the
    # standardised score (standardising keeps _LOGIT_STD and
    # _LOGIT_OFFSET meaningful whatever the sampled weights/frequencies).
    scores = raw @ true_weights
    score_std = float(scores.std())
    if score_std == 0.0:
        score_std = 1.0  # degenerate draw (e.g. all weights zero)
    standardised = (scores - float(scores.mean())) / score_std
    logits = _LOGIT_STD * standardised + _LOGIT_OFFSET
    probabilities = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.random(num_points) < probabilities).astype(np.float64)

    # Label noise.
    flip = rng.random(num_points) < _LABEL_NOISE
    labels = np.where(flip, 1.0 - labels, labels)

    # Map {-1, 0, 1} -> {0, 0.5, 1} like the scaled LIBSVM release.
    features = raw
    features += 1.0
    features /= 2.0

    return Dataset(features=features, labels=labels, name="phishing-synthetic")
